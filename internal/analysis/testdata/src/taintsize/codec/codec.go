// Package codec is a golden-test fixture for the taintsize analyzer:
// bitstream-derived integers crossing function boundaries into make()
// sizes, loop bounds, or summarized callee sinks must be bounds-checked
// somewhere on the path.
package codec

import "encoding/binary"

const maxRecords = 1 << 20

// readCount decodes a record count from the stream; its summary marks
// the result bitstream-tainted.
func readCount(src []byte) uint64 {
	n, _ := binary.Uvarint(src)
	return n
}

// plumb passes the count through untouched — a second call hop whose
// summary inherits readCount's taint.
func plumb(src []byte) uint64 {
	return readCount(src)
}

// allocRecords commits memory for n records; its summary records the
// make() as a parameter sink.
func allocRecords(n uint64) []uint64 {
	return make([]uint64, n)
}

// DecodeTwoHop routes the count through readCount -> plumb -> here and
// into allocRecords' make with no check anywhere: a three-function flow
// no single-function check can see.
func DecodeTwoHop(src []byte) []uint64 {
	n := plumb(src)
	return allocRecords(n) // want `bitstream-derived value n \(from plumb\(\)\) flows unchecked into a make\(\) in allocRecords`
}

// DecodeFrame allocates directly from a helper-read count: the taint
// crossed one call boundary, so this is a cross-call finding.
func DecodeFrame(src []byte) []byte {
	n := readCount(src)
	return make([]byte, n) // want `make\(\) sized by n, a bitstream-derived value from readCount\(\)`
}

// SumRecords iterates a helper-read count with no cap: a hostile stream
// buys an arbitrarily long loop in a few bytes.
func SumRecords(src []byte) uint64 {
	n := readCount(src)
	var s uint64
	for i := uint64(0); i < n; i++ { // want `loop bounded by n, a bitstream-derived value from readCount\(\)`
		s += i
	}
	return s
}

// DecodeInline feeds the helper's result straight into the sink call
// with no intermediate variable; the message names the origin alone
// instead of repeating it as the value name.
func DecodeInline(src []byte) []uint64 {
	return allocRecords(readCount(src)) // want `the bitstream-derived result of readCount\(\) flows unchecked into a make\(\) in allocRecords`
}

// DecodeChecked compares the count against a cap before the sink: the
// comparison sanitizes the flow (clean).
func DecodeChecked(src []byte) []uint64 {
	n := readCount(src)
	if n > maxRecords {
		return nil
	}
	return allocRecords(n)
}

// clamp caps its input in-callee; its summary's param->result mask is
// therefore clean, sanitizing every call site (the zfp precision()
// pattern — the name deliberately matches no sanitizer regex, so only
// the summary can prove it safe).
func clamp(n uint64) uint64 {
	if n > maxRecords {
		n = maxRecords
	}
	return n
}

// DecodeClamped routes the count through clamp before the sink (clean).
func DecodeClamped(src []byte) []uint64 {
	raw := readCount(src)
	n := clamp(raw)
	return allocRecords(n)
}
