package stream

import (
	"fmt"
	"hash/crc32"
	"io"

	"cliz/internal/core"
	"cliz/internal/entropy"
	"cliz/internal/lossless"
	"cliz/internal/quant"
)

// RecordInfo locates one frame record inside a parsed stream. Tests and the
// conformance harness use it to target corruption at a specific frame.
type RecordInfo struct {
	Kind Kind
	// Index is the frame's position in the stream.
	Index int
	// Offset is the record header's byte offset.
	Offset int
	// PayloadOffset/PayloadLen frame the compressed payload bytes.
	PayloadOffset int
	PayloadLen    int
	// SyncIndex is the governing sync frame (the latest key/intra frame at
	// or before this one) — the replay start for a cold Seek to this frame.
	SyncIndex int
}

// Reader decodes a CliZ stream. Parse validates the header and the frame
// chain structurally (framing, indices, sync offsets); payload checksums are
// verified lazily when a frame is decoded, so opening a long stream is cheap.
//
// The Reader is positional: ReadFrame decodes the frame at the current
// position and advances, Seek repositions. A read that cannot continue from
// the held state replays from the target's governing sync frame — at most
// one keyframe interval of work, and bit-identical to sequential decode,
// because every frame's reconstruction is a pure function of the stream
// bytes.
type Reader struct {
	blob []byte
	h    streamHeader
	recs []record
	opt  core.DecompressOptions
	// valid is the broadcast per-frame validity (nil when unmasked).
	valid []bool
	// cur holds the reconstruction of frame curFrame (-1 = none yet);
	// delta frames predict from it.
	cur      []float32
	alt      []float32
	curFrame int
	pos      int
}

// Parse opens a stream: it verifies the header checksum and scans every
// frame record, validating kinds, declared indices, sync-offset chaining and
// payload framing. Hostile input fails with an error wrapping
// core.ErrCorrupt and cannot trigger allocations the stream bytes cannot
// plausibly back.
func Parse(blob []byte, opt core.DecompressOptions) (*Reader, error) {
	h, pos, err := parseStreamHeader(blob)
	if err != nil {
		return nil, err
	}
	r := &Reader{blob: blob, h: h, opt: opt, curFrame: -1}
	lastSyncOff, lastSyncIdx := -1, -1
	for pos < len(blob) {
		rec, err := parseRecord(blob, &pos, len(r.recs), lastSyncOff, lastSyncIdx)
		if err != nil {
			return nil, err
		}
		if rec.kind.Sync() {
			lastSyncOff, lastSyncIdx = rec.off, len(r.recs)
		}
		r.recs = append(r.recs, rec)
	}
	if h.mask != nil {
		valid, err := h.mask.Broadcast(h.dims)
		if err != nil {
			return nil, corrupt(err)
		}
		r.valid = valid
	}
	return r, nil
}

// Frames returns the number of frames in the stream.
func (r *Reader) Frames() int { return len(r.recs) }

// Dims returns the per-frame extents.
func (r *Reader) Dims() []int { return append([]int(nil), r.h.dims...) }

// EB returns the stream's absolute error bound.
func (r *Reader) EB() float64 { return r.h.eb }

// Interval returns the declared keyframe interval.
func (r *Reader) Interval() int { return r.h.interval }

// Pos returns the index of the frame the next ReadFrame will decode.
func (r *Reader) Pos() int { return r.pos }

// Record returns the location and kind of frame t.
func (r *Reader) Record(t int) (RecordInfo, error) {
	if t < 0 || t >= len(r.recs) {
		return RecordInfo{}, fmt.Errorf("stream: frame %d out of range [0, %d)", t, len(r.recs))
	}
	rec := r.recs[t]
	return RecordInfo{
		Kind:          rec.kind,
		Index:         t,
		Offset:        rec.off,
		PayloadOffset: rec.payloadOff,
		PayloadLen:    rec.payloadLen,
		SyncIndex:     rec.syncIdx,
	}, nil
}

// Seek positions the reader so the next ReadFrame returns frame t. The call
// is lazy and cheap: the replay (from the governing sync frame, at most one
// keyframe interval of work) happens inside the next ReadFrame. Seeking and
// sequential reading yield bit-identical frames, because every frame's
// reconstruction is a pure function of the stream bytes.
func (r *Reader) Seek(t int) error {
	if t < 0 || t >= len(r.recs) {
		return fmt.Errorf("stream: seek to frame %d out of range [0, %d)", t, len(r.recs))
	}
	r.pos = t
	return nil
}

// ReadFrame decodes the frame at the current position, advances past it and
// returns a fresh copy of the reconstruction. At end of stream it returns
// io.EOF. A payload checksum mismatch or malformed payload is reported as a
// *FrameError naming the frame, wrapping core.ErrCorrupt.
func (r *Reader) ReadFrame() ([]float32, error) {
	if r.pos >= len(r.recs) {
		return nil, io.EOF
	}
	t := r.pos
	start := t
	if !r.recs[t].kind.Sync() {
		// A delta frame needs the reconstruction of t-1. Continue from the
		// held state when it lies inside this frame's replay chain; otherwise
		// replay from the governing sync frame.
		if r.curFrame >= r.recs[t].syncIdx && r.curFrame < t {
			start = r.curFrame + 1
		} else {
			start = r.recs[t].syncIdx
		}
	}
	for i := start; i <= t; i++ {
		if err := r.decodeFrame(i); err != nil {
			return nil, err
		}
	}
	r.pos = t + 1
	out := make([]float32, len(r.cur))
	copy(out, r.cur)
	return out, nil
}

// interrupted polls the configured Interrupt hook at frame boundaries.
func (r *Reader) interrupted() error {
	if r.opt.Interrupt == nil {
		return nil
	}
	if err := r.opt.Interrupt(); err != nil {
		return fmt.Errorf("%w: %w", core.ErrInterrupted, err)
	}
	return nil
}

// decodeFrame decodes frame t into r.cur. The caller guarantees the state
// invariant: for delta frames, r.cur holds the reconstruction of t-1.
func (r *Reader) decodeFrame(t int) error {
	if err := r.interrupted(); err != nil {
		return err
	}
	rec := r.recs[t]
	payload := r.blob[rec.payloadOff : rec.payloadOff+rec.payloadLen]
	if got := crc32.Checksum(payload, crcTable); got != rec.crc {
		return &FrameError{Frame: t, Err: ErrChecksum}
	}
	if rec.kind.Sync() {
		data, dims, err := core.Decompress(payload, r.opt)
		if err != nil {
			return &FrameError{Frame: t, Err: corrupt(err)}
		}
		if len(data) != r.h.volume() || !dimsEqual(dims, r.h.dims) {
			return &FrameError{Frame: t,
				Err: fmt.Errorf("stream: frame dims %v do not match stream dims %v: %w",
					dims, r.h.dims, ErrCorrupt)}
		}
		r.cur = data
		r.curFrame = t
		return nil
	}
	if r.curFrame != t-1 || len(r.cur) != r.h.volume() {
		// Parse guarantees the chain starts at a sync frame and ReadFrame
		// replays in order, so this only fires if the decode-order invariant
		// is broken internally.
		return &FrameError{Frame: t,
			Err: fmt.Errorf("stream: delta frame without predecessor state: %w", ErrCorrupt)}
	}
	if err := r.decodeDelta(payload); err != nil {
		return &FrameError{Frame: t, Err: corrupt(err)}
	}
	r.curFrame = t
	return nil
}

// decodeDelta reconstructs a delta frame from its payload against r.cur,
// leaving the new reconstruction in r.cur.
func (r *Reader) decodeDelta(payload []byte) error {
	vol := r.h.volume()
	workers := r.opt.Workers
	if workers < 1 {
		workers = 1
	}
	pos := 0
	binsSec, err := readDeltaSection(payload, &pos)
	if err != nil {
		return err
	}
	litSec, err := readDeltaSection(payload, &pos)
	if err != nil {
		return err
	}
	if pos != len(payload) {
		return fmt.Errorf("stream: %d trailing bytes in delta payload: %w",
			len(payload)-pos, ErrCorrupt)
	}
	raw, err := corruptDecode(binsSec)
	if err != nil {
		return err
	}
	syms, err := decodeBins(raw, workers, vol)
	if err != nil {
		return err
	}
	litBytes, err := corruptDecode(litSec)
	if err != nil {
		return err
	}
	lits, err := bytesToFloat32s(litBytes)
	if err != nil {
		return err
	}
	q := newQuantizer(r.h)
	out := r.alt
	if len(out) != vol {
		out = make([]float32, vol)
	}
	si, li := 0, 0
	maxBin := 2*uint32(r.h.radius) - 1
	for i := 0; i < vol; i++ {
		// A replayed Seek can decode a keyframe interval's worth of deltas;
		// poll mid-frame so cancellation is not gated on frame boundaries.
		if i&0xffff == 0 {
			if err := r.interrupted(); err != nil {
				return err
			}
		}
		if r.valid != nil && !r.valid[i] {
			out[i] = r.h.fill
			continue
		}
		if si >= len(syms) {
			return fmt.Errorf("stream: delta payload short of %d bin symbols: %w",
				vol-i, ErrCorrupt)
		}
		sym := syms[si]
		si++
		if sym > maxBin {
			return fmt.Errorf("stream: bin symbol %d outside radius %d: %w",
				sym, r.h.radius, ErrCorrupt)
		}
		if sym == 0 {
			if li >= len(lits) {
				return fmt.Errorf("stream: delta payload short of literals: %w", ErrCorrupt)
			}
			out[i] = lits[li]
			li++
			continue
		}
		out[i] = float32(q.Recover(float64(r.cur[i]), int32(sym), 0))
	}
	if si != len(syms) || li != len(lits) {
		return fmt.Errorf("stream: %d bin / %d literal symbols left over: %w",
			len(syms)-si, len(lits)-li, ErrCorrupt)
	}
	r.alt = r.cur
	r.cur = out
	return nil
}

// readDeltaSection reads one length-prefixed section of a delta payload.
func readDeltaSection(payload []byte, pos *int) ([]byte, error) {
	l, err := readUvarint(payload, pos)
	if err != nil {
		return nil, fmt.Errorf("stream: bad delta section length: %w", ErrCorrupt)
	}
	if l > uint64(len(payload)-*pos) {
		return nil, fmt.Errorf("stream: delta section truncated: %w", ErrCorrupt)
	}
	out := payload[*pos : *pos+int(l)]
	*pos += int(l)
	return out, nil
}

// newQuantizer rebuilds the writer's quantizer from the stream header; the
// Recover arithmetic must match Quantize bit for bit, which quant guarantees
// for equal (eb, radius).
func newQuantizer(h streamHeader) quant.Quantizer {
	return quant.New(h.eb, h.radius)
}

// corruptDecode lossless-decodes a section, classifying failure as stream
// corruption.
func corruptDecode(sec []byte) ([]byte, error) {
	out, err := lossless.Decode(sec)
	if err != nil {
		return nil, corrupt(err)
	}
	return out, nil
}

// decodeBins entropy-decodes a bin-symbol block; the entropy layer rejects
// declared symbol counts beyond maxSyms before allocating.
func decodeBins(raw []byte, workers, maxSyms int) ([]uint32, error) {
	syms, err := entropy.DecodeBlockBounded(raw, workers, maxSyms)
	if err != nil {
		return nil, corrupt(err)
	}
	return syms, nil
}

func dimsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
