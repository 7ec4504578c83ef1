// Package bitio is a golden-test fixture for the zero-hop case of the
// taintsize analyzer: allocations sized from bitstream reads in the same
// function must be dominated by a bounds check before memory is committed.
package bitio

import "encoding/binary"

const maxSections = 16

// ParseHeader reads two counts from the stream. The first sizes an
// allocation with no preceding bounds check (flagged); the second is
// compared against a named cap first (clean).
func ParseHeader(src []byte) ([]byte, []uint32) {
	n, _ := binary.Uvarint(src)
	bad := make([]byte, n) // want `make\(\) sized by "n", which is read from the bitstream`
	m, sz := binary.Uvarint(src[1:])
	if m > maxSections || sz <= 0 {
		return bad, nil
	}
	good := make([]uint32, m)
	return bad, good
}

// ParseBody grows output with append inside a loop: work-proportional to
// the input, deliberately exempt.
func ParseBody(src []byte) []uint64 {
	var out []uint64
	for len(src) >= 8 {
		v := binary.LittleEndian.Uint64(src)
		out = append(out, v)
		src = src[8:]
	}
	return out
}
