package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"cliz/internal/trace"
)

// Integrity verification: walk a blob's structure, checking the v3 header
// and section checksums (and the structural framing of v1/v2 blobs) without
// decoding payloads. Verify answers "which bytes are damaged" before any
// section is interpreted; DecompressVerified stacks a full decode (plus
// optional bound self-verification) on top; DecompressPartial salvages the
// intact chunks of a damaged chunked container.

// verifyCounters accumulates verification statistics across concurrently
// decoded chunks.
type verifyCounters struct {
	boundChecked atomic.Int64
}

// SectionCheck is the verification result for one blob section (or header).
type SectionCheck struct {
	// Path names the section, qualified by its position in the blob tree:
	// "header", "bins", "template/literals", "chunk[2]/mask", ...
	Path  string
	Bytes int
	// OK is false when the section's checksum mismatches or its framing is
	// corrupt.
	OK bool
	// Checksummed reports whether a CRC-32C actually covered this section
	// (false inside v1/v2 blobs, where only structural framing is checked).
	Checksummed bool
	// Detail explains a failure (empty when OK).
	Detail string
}

// ChunkDamage describes one undecodable chunk of a chunked container.
type ChunkDamage struct {
	// Index is the chunk's position in the container.
	Index int
	// LeadStart/LeadLen locate the damaged region along dims[0]; the
	// affected output slice is [LeadStart*plane, (LeadStart+LeadLen)*plane).
	LeadStart int
	LeadLen   int
	// Err is the decode failure.
	Err error
}

// VerifyReport is the outcome of verifying a blob's integrity.
type VerifyReport struct {
	// Kind is "unit", "periodic" or "chunked".
	Kind string
	// Version is the root blob's format version (0 when the header is
	// unparseable; chunked containers report the first chunk's version).
	Version int
	// Checksummed reports whether the root carries v3 integrity checksums.
	Checksummed bool
	// Sections lists every section checked, in blob order.
	Sections []SectionCheck
	// BoundChecked counts decode-time bound self-verification points
	// (filled by DecompressVerified/DecompressPartial when enabled).
	BoundChecked int64
	// DamagedChunks lists chunks DecompressPartial could not decode.
	DamagedChunks []ChunkDamage
}

// OK reports whether every section verified and every chunk decoded.
func (r *VerifyReport) OK() bool {
	for _, s := range r.Sections {
		if !s.OK {
			return false
		}
	}
	return len(r.DamagedChunks) == 0
}

// Damaged returns the paths of all failed sections and damaged chunks.
func (r *VerifyReport) Damaged() []string {
	var out []string
	for _, s := range r.Sections {
		if !s.OK {
			out = append(out, s.Path)
		}
	}
	for _, c := range r.DamagedChunks {
		out = append(out, fmt.Sprintf("chunk[%d]", c.Index))
	}
	return out
}

// String renders a one-line-per-section summary.
func (r *VerifyReport) String() string {
	var sb strings.Builder
	state := "ok"
	if !r.OK() {
		state = "DAMAGED"
	}
	crc := "no checksums (v<3)"
	if r.Checksummed {
		crc = "crc32c"
	}
	fmt.Fprintf(&sb, "%s v%d [%s]: %s\n", r.Kind, r.Version, crc, state)
	for _, s := range r.Sections {
		mark := "ok"
		if !s.OK {
			mark = "FAIL " + s.Detail
		} else if !s.Checksummed {
			mark = "ok (structural only)"
		}
		fmt.Fprintf(&sb, "  %-24s %8d bytes  %s\n", s.Path, s.Bytes, mark)
	}
	for _, c := range r.DamagedChunks {
		fmt.Fprintf(&sb, "  chunk[%d] lead %d+%d UNDECODABLE: %v\n",
			c.Index, c.LeadStart, c.LeadLen, c.Err)
	}
	if r.BoundChecked > 0 {
		fmt.Fprintf(&sb, "  bound self-verified at %d points\n", r.BoundChecked)
	}
	return sb.String()
}

func (r *VerifyReport) add(c SectionCheck) { r.Sections = append(r.Sections, c) }

// Verify checks a blob's integrity without decoding payloads: v3 blobs have
// the header CRC and every section CRC-32C recomputed; v1/v2 blobs (which
// carry no checksums) are walked structurally. Periodic children and
// container chunks are verified recursively under qualified paths. The
// report, a flattening of walk, tells damage apart by section; it never
// panics on hostile input.
func Verify(blob []byte) *VerifyReport {
	n := walk(blob)
	rep := &VerifyReport{Kind: n.kind()}
	if !n.chunked {
		rep.Checksummed = rep.flatten(n, "")
		rep.Version = int(n.h.version)
		return rep
	}
	if n.fault != nil {
		rep.add(SectionCheck{Path: "container", Bytes: len(blob), OK: false, Detail: n.fault.Error()})
		return rep
	}
	for i, k := range n.kids {
		crc := rep.flatten(k, fmt.Sprintf("chunk[%d]/", i))
		if i == 0 {
			rep.Version, rep.Checksummed = int(k.h.version), crc
		} else if !crc {
			rep.Checksummed = false
		}
	}
	return rep
}

// flatten appends the checks of one walked unit or periodic blob under the
// given path prefix. It reports whether all of the blob, children included,
// is checksummed and framed intact.
func (r *VerifyReport) flatten(n *blobNode, path string) bool {
	if n.fault != nil {
		r.add(SectionCheck{Path: path + "header", Bytes: n.size, OK: false,
			Checksummed: errors.Is(n.fault, ErrChecksum), Detail: n.fault.Error()})
		return false
	}
	checksummed := n.h.version >= version3
	r.add(SectionCheck{Path: path + "header", Bytes: n.hdr, OK: true, Checksummed: checksummed})
	for i, s := range n.sections() {
		name := path + sectionName(s.id)
		switch {
		case s.err == nil:
			r.add(SectionCheck{Path: name, Bytes: s.bytes, OK: true, Checksummed: checksummed})
			if i < len(n.kids) {
				checksummed = r.flatten(n.kids[i], name+"/") && checksummed
			}
		case errors.Is(s.err, ErrChecksum):
			// Framing is intact (the length field parsed), so later
			// sections can still be checked independently.
			r.add(SectionCheck{Path: name, Bytes: s.bytes, OK: false,
				Checksummed: true, Detail: "checksum mismatch"})
		default:
			r.add(SectionCheck{Path: name, Bytes: s.bytes, OK: false,
				Checksummed: checksummed, Detail: s.err.Error()})
			return false
		}
	}
	if checksummed && n.end != n.size {
		r.add(SectionCheck{Path: path + "trailing", Bytes: n.size - n.end, OK: false,
			Checksummed: true, Detail: fmt.Sprintf("%d bytes past the last section", n.size-n.end)})
	}
	return checksummed
}

// DecompressVerified verifies every checksum, then decodes. When
// opt.BoundCheckEvery > 0 it additionally replays the prediction traversal
// over the decoded output, checking sampled points regenerate exactly from
// their recorded bins (the report's BoundChecked counts them). On damage the
// report names the failed sections and no decode is attempted.
func DecompressVerified(blob []byte, opt DecompressOptions) ([]float32, []int, *VerifyReport, error) {
	sp := trace.Begin(opt.Trace, "verify-checksums")
	rep := Verify(blob)
	sp.EndFull(int64(len(blob)), 0, int64(len(rep.Sections)), nil)
	if !rep.OK() {
		return nil, nil, rep, fmt.Errorf("core: integrity check failed (%s): %w",
			strings.Join(rep.Damaged(), ", "), ErrCorrupt)
	}
	stats := &verifyCounters{}
	opt.stats = stats
	data, dims, err := Decompress(blob, opt)
	rep.BoundChecked = stats.boundChecked.Load()
	return data, dims, rep, err
}

// DecompressPartial decodes as much of a chunked container as possible:
// intact chunks land in the output, undecodable ones are reported in the
// VerifyReport's DamagedChunks and their regions filled with quiet NaN so
// they cannot be mistaken for data. Non-chunked blobs degrade to
// DecompressVerified (a unit blob has no independent pieces to salvage). The
// returned error is non-nil only when nothing was decodable (bad container
// framing, every chunk damaged, or a damaged unit blob); the report still
// lists the damaged chunks then.
func DecompressPartial(blob []byte, opt DecompressOptions) ([]float32, []int, *VerifyReport, error) {
	if !IsChunked(blob) {
		return DecompressVerified(blob, opt)
	}
	sp := trace.Begin(opt.Trace, "verify-checksums")
	rep := Verify(blob)
	sp.EndFull(int64(len(blob)), 0, int64(len(rep.Sections)), nil)
	stats := &verifyCounters{}
	opt.stats = stats
	data, dims, damage, err := decompressChunked(blob, opt, true)
	rep.DamagedChunks = damage
	rep.BoundChecked = stats.boundChecked.Load()
	return data, dims, rep, err
}
