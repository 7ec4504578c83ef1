package core

import (
	"errors"
	"fmt"
	"hash/crc32"
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
// report tells damage apart by section; it never panics on hostile input.
func Verify(blob []byte) *VerifyReport {
	rep := &VerifyReport{Kind: "unit"}
	if IsChunked(blob) {
		rep.Kind = "chunked"
		_, chunks, err := parseChunkedContainer(blob)
		if err != nil {
			rep.add(SectionCheck{Path: "container", Bytes: len(blob), OK: false, Detail: err.Error()})
			return rep
		}
		for i, ch := range chunks {
			v, c := verifyAt(ch.blob, fmt.Sprintf("chunk[%d]/", i), rep)
			if i == 0 {
				rep.Version, rep.Checksummed = v, c
			} else if !c {
				rep.Checksummed = false
			}
		}
		return rep
	}
	ver, crc := verifyAt(blob, "", rep)
	rep.Version, rep.Checksummed = ver, crc
	if len(blob) > 0 {
		pos := 0
		if h, err := parseHeader(blob, &pos); err == nil && h.flags&flagPeriodic != 0 {
			rep.Kind = "periodic"
		}
	}
	return rep
}

// verifyAt walks one (unit or periodic) blob, appending section checks under
// the given path prefix. It returns the blob's version and whether all of it
// (including children) is checksummed.
func verifyAt(blob []byte, path string, rep *VerifyReport) (version int, checksummed bool) {
	pos := 0
	h, err := parseHeader(blob, &pos)
	if err != nil {
		rep.add(SectionCheck{Path: path + "header", Bytes: len(blob), OK: false,
			Checksummed: errors.Is(err, ErrChecksum), Detail: err.Error()})
		return 0, false
	}
	checksummed = h.version >= version3
	rep.add(SectionCheck{Path: path + "header", Bytes: pos, OK: true, Checksummed: checksummed})

	var ids []byte
	if h.flags&flagPeriodic != 0 {
		ids = []byte{secTemplate, secResidual}
	} else {
		if h.flags&(flagMask|flagPointMask) != 0 {
			ids = append(ids, secMask)
		}
		if h.flags&flagClassify != 0 {
			ids = append(ids, secClassMeta, secBinsA, secBinsB)
		} else {
			ids = append(ids, secBins)
		}
		ids = append(ids, secLiterals)
	}
	sr := sectionReader{h: &h}
	for _, id := range ids {
		name := path + sectionName(id)
		secStart := pos
		sec, err := sr.next(blob, &pos, id)
		if err != nil {
			if errors.Is(err, ErrChecksum) {
				// Framing is intact (the length field parsed), so later
				// sections can still be checked independently.
				rep.add(SectionCheck{Path: name, Bytes: pos - secStart, OK: false,
					Checksummed: true, Detail: "checksum mismatch"})
				continue
			}
			rep.add(SectionCheck{Path: name, Bytes: len(blob) - secStart, OK: false,
				Checksummed: checksummed, Detail: err.Error()})
			return int(h.version), false
		}
		rep.add(SectionCheck{Path: name, Bytes: len(sec), OK: true, Checksummed: checksummed})
		if id == secTemplate || id == secResidual {
			_, childCRC := verifyAt(sec, name+"/", rep)
			checksummed = checksummed && childCRC
		}
	}
	if checksummed && pos != len(blob) {
		rep.add(SectionCheck{Path: path + "trailing", Bytes: len(blob) - pos, OK: false,
			Checksummed: true, Detail: fmt.Sprintf("%d bytes past the last section", len(blob)-pos)})
	}
	return int(h.version), checksummed
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

// sectionCRC is exposed for tests crafting corrupted fixtures.
func sectionCRC(payload []byte) uint32 {
	return crc32.Checksum(payload, crcTable)
}
