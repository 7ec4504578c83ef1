package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"cliz"
	"cliz/internal/datagen"
	"cliz/internal/entropy"
	"cliz/internal/lossless"
	"cliz/internal/quant"
)

// streamScale sizes the stream workload's sequences: at the 0.25 default an
// ADVECT-SSH append takes ~25 ms, too short to time, so the frames are
// larger and longer.
const (
	streamScale    = 0.6
	streamRel      = 1e-3
	streamInterval = 16
	seeksPerPass   = 24
)

// frameGroup is how many frames share one speed probe in the stream
// workload: a frame takes a few milliseconds, a probe about ten.
const frameGroup = 16

// appendStream writes every frame of ts to a new stream and returns the
// blob, the per-frame infos and the seconds of each Append (scaled when m
// is set).
func appendStream(ts *datagen.TemporalStream, rel float64, interval int, pipe *cliz.Pipeline, m *meter) ([]byte, []cliz.StreamFrameInfo, []float64, error) {
	var buf bytes.Buffer
	spec := cliz.StreamSpec{Name: ts.Name, Dims: ts.Dims, FillValue: ts.Fill}
	if ts.Mask != nil {
		spec.MaskRegions = ts.Mask.Regions
	}
	w, err := cliz.NewStreamWriter(&buf, spec, cliz.Rel(rel), pipe,
		cliz.WithKeyframeInterval(interval), cliz.WithWorkers(1))
	if err != nil {
		return nil, nil, nil, err
	}
	infos := make([]cliz.StreamFrameInfo, len(ts.Frames))
	secs, err := grouped(m, len(ts.Frames), frameGroup, func(i int) error {
		info, err := w.Append(ts.Frames[i])
		infos[i] = info
		if err != nil {
			return fmt.Errorf("append %s frame %d: %w", ts.Name, i, err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := w.Close(); err != nil {
		return nil, nil, nil, err
	}
	return buf.Bytes(), infos, secs, nil
}

// readSequential decodes every frame of a stream in order and returns the
// frames with the seconds of each ReadFrame (scaled when m is set).
func readSequential(blob []byte, m *meter) ([][]float32, []float64, error) {
	r, err := cliz.NewStreamReader(blob, cliz.WithWorkers(1))
	if err != nil {
		return nil, nil, err
	}
	out := make([][]float32, r.Frames())
	secs, err := grouped(m, r.Frames(), frameGroup, func(i int) error {
		fr, err := r.ReadFrame()
		out[i] = fr
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := r.ReadFrame(); !errors.Is(err, io.EOF) {
		return nil, nil, fmt.Errorf("stream continues past its %d frames: %v", len(out), err)
	}
	return out, secs, nil
}

// seqInput is one temporal sequence of the stream workload.
type seqInput struct {
	ts    *datagen.TemporalStream
	field *field // frame 0: tuning, estimate and the error bound
	pipe  cliz.Pipeline
	valid []bool
	mb    float64
}

type streamState struct {
	seqs   []*seqInput
	points int
}

func setupStream(seed int64, m *meter) (*streamState, error) {
	st := &streamState{}
	rng := rand.New(rand.NewSource(seed))
	for _, spec := range datagen.TemporalScenario(streamScale) {
		ts, err := seededTemporal(spec, rng)
		if err != nil {
			return nil, err
		}
		ds0 := &cliz.Dataset{Name: ts.Name, Data: ts.Frames[0], Dims: ts.Dims, FillValue: ts.Fill}
		if ts.Mask != nil {
			ds0.MaskRegions = ts.Mask.Regions
		}
		f, err := newField(ds0, streamRel)
		if err != nil {
			return nil, err
		}
		valid, err := cliz.ValidityOf(ds0)
		if err != nil {
			return nil, err
		}
		// Keyframes and intra fallbacks use a pipeline tuned on the first
		// frame, the offline stage of a streaming deployment.
		pipe, _, err := cliz.AutoTune(ds0, cliz.Rel(streamRel), &cliz.TuneOptions{Context: m.ctx()})
		if err != nil {
			return nil, fmt.Errorf("tune %s: %w", ts.Name, err)
		}
		st.seqs = append(st.seqs, &seqInput{
			ts: ts, field: f, pipe: pipe, valid: valid,
			mb: float64(len(ts.Frames)*len(ts.Frames[0])) * 4 / 1e6,
		})
		st.points += len(ts.Frames) * len(ts.Frames[0])
	}
	return st, nil
}

// runStream is the stream workload: StreamWriter.Append over seeded
// ADVECT-SSH and DRIFT-T sequences, then a sequential ReadFrame pass and
// seeded random Seek+ReadFrame, every frame checked.
func runStream(o options) (*report, error) {
	rep := newReport()
	st, setupS, err := timeSetup(3, func(m *meter) (*streamState, error) {
		return setupStream(o.seed, m)
	}, nil)
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setupS
	rng := rand.New(rand.NewSource(o.seed))
	var lay *streamLayers
	if o.trace {
		lay = &streamLayers{}
	}

	// Per sequence, the scaled append and sequential-read seconds of each
	// pass.
	ns := len(st.seqs)
	appT, readT := make([][]float64, ns), make([][]float64, ns)
	// frameLat[si][t] holds frame t's append times (ms), one per pass.
	frameLat := make([][][]float64, ns)
	for si, sq := range st.seqs {
		frameLat[si] = make([][]float64, len(sq.ts.Frames))
	}
	// tune_s and estimate_ms, probed every pass on each sequence's first
	// frame, the field the set-up tuned.
	side := &sideProbes{tuneN: 1, estN: 8}
	for _, sq := range st.seqs {
		side.tune = append(side.tune, tuneTarget{sq.field, sq.pipe.String()})
		side.est = append(side.est, sq.field)
	}
	var seekLat []float64
	var seekKeys []int // sequence and target frame of each seek
	var inBytes, outBytes float64
	var frames, deltas, replayed, seeks, passes int
	runtime.GC() // set-up's garbage is not the timed phase's to collect
	m := newMeter()
	rt0 := readRuntime()
	start := time.Now()
	for time.Since(start).Seconds() < o.seconds || passes < 2 {
		for si, sq := range st.seqs {
			// One operation: append the sequence, read it back, check every
			// frame (and, traced, replay its delta frames).
			blob, infos, walls, err := appendStream(sq.ts, streamRel, streamInterval, &sq.pipe, m)
			if err != nil {
				rep.op(err)
				continue
			}
			appS := 0.0
			for t, w := range walls {
				appS += w
				frameLat[si][t] = append(frameLat[si][t], 1e3*w)
			}
			appT[si] = append(appT[si], appS)
			for _, info := range infos {
				if info.Kind == cliz.StreamDelta {
					deltas++
				}
			}
			frames += len(walls)
			inBytes += sq.mb * 1e6
			outBytes += float64(len(blob))
			seq, reads, err := readSequential(blob, m)
			if err == nil && len(seq) != len(sq.ts.Frames) {
				err = fmt.Errorf("%d frames, want %d", len(seq), len(sq.ts.Frames))
			}
			if err != nil {
				rep.op(fmt.Errorf("read %s: %w", sq.ts.Name, err))
				continue
			}
			readS := 0.0
			for _, r := range reads {
				readS += r
			}
			readT[si] = append(readT[si], readS)
			for t, fr := range seq {
				if err = checkDecoded(sq.ts.Frames[t], fr, sq.valid, sq.field.abs, sq.ts.Fill); err != nil {
					err = fmt.Errorf("frame %d: %w", t, err)
					break
				}
			}
			var r *cliz.StreamReader
			if err == nil {
				r, err = cliz.NewStreamReader(blob, cliz.WithWorkers(1))
			}
			if err == nil && lay != nil {
				err = lay.replay(sq, seq, infos, r.ErrorBound())
			}
			if !rep.op(wrap(sq.ts.Name, err)) {
				continue
			}
			lat, targets := timeSeeks(rep, m, r, seq, rng, seeksPerPass)
			seekLat = append(seekLat, lat...)
			seeks += len(targets)
			for _, t := range targets {
				replayed += framesSinceSync(infos, t)
				seekKeys = append(seekKeys, si*len(infos)+t)
			}
		}
		side.pass(rep, m)
		passes++
	}
	rt1 := readRuntime()
	runtimeMetrics(rep, rt0, rt1, frames)

	// Each sequence at its median pass.
	var mb, aS, rS float64
	nFrames := 0
	for si, sq := range st.seqs {
		mb += sq.mb
		aS += median(appT[si])
		rS += median(readT[si])
		nFrames += len(sq.ts.Frames)
	}
	rep.e2e["compress_mb_s"] = mb / aS
	rep.e2e["decompress_mb_s"] = mb / rS
	rep.e2e["ratio"] = inBytes / outBytes
	// Percentiles over frames of each frame's median append time: a single
	// append takes a few milliseconds, so one pass's times scatter with
	// the machine's noise, and a pooled p95 would pick noise out of the
	// delta frames rather than the keyframes' cost.
	var perFrame []float64
	for _, seq := range frameLat {
		for _, ts := range seq {
			perFrame = append(perFrame, median(ts))
		}
	}
	rep.e2e["latency_p50_ms"] = percentile(perFrame, 50)
	rep.e2e["latency_p95_ms"] = percentile(perFrame, 95)
	rep.e2e["throughput_rps"] = float64(nFrames) / (aS + rS)
	rep.e2e["seek_ms"] = seekCost(seekLat, seekKeys)
	side.finish(rep)
	rep.meta["frames_per_pass"] = nFrames
	rep.meta["passes"] = passes
	rep.meta["speed"] = m.speed()
	rep.meta["samples_latency"] = frames
	q1, q3 := quartiles(perFrame)
	rep.meta["latency_quartiles_ms"] = []float64{q1, q3}
	rep.meta["samples_seek"] = len(seekLat)

	if lay != nil {
		if err := lay.finish(rep); err != nil {
			return nil, err
		}
		rep.layer["stream.append_ns_per_point"] = 1e9 * aS / float64(st.points)
		rep.layer["stream.delta_frac"] = float64(deltas) / float64(frames)
		rep.layer["stream.replay_frames_per_seek"] = float64(replayed) / float64(seeks)
		rep.layer["estimate.accept_frac"] = float64(side.accepted) / math.Max(1, float64(side.calls))
		zeroLayers(rep)
	}
	return rep, nil
}

// framesSinceSync is how many frames a seek to t replays before decoding
// t: back to the governing keyframe or intra frame.
func framesSinceSync(infos []cliz.StreamFrameInfo, t int) int {
	s := t
	for s > 0 && infos[s].Kind == cliz.StreamDelta {
		s--
	}
	return t - s
}

// streamLayers replays the delta coder's kernels for the stream workload.
type streamLayers struct{ layerAcc }

// replay re-runs every delta frame's kernels on the frame's own data: the
// quantizer against the previous frame's reconstruction (the sequential
// decode, which the writer's reconstruction equals by construction), then
// the entropy coder and the lossless stage, and their decoders. The
// replayed payload must have the size the writer reported. Each replayed
// frame counts as one replayed op.
func (l *streamLayers) replay(sq *seqInput, seq [][]float32, infos []cliz.StreamFrameInfo, eb float64) error {
	a := &l.layerAcc
	q := quant.New(eb, quant.DefaultRadius)
	be := lossless.Flate{Level: 6}
	for t := 1; t < len(seq); t++ {
		if infos[t].Kind != cliz.StreamDelta {
			continue
		}
		prev, frame := seq[t-1], sq.ts.Frames[t]
		syms := make([]uint32, 0, len(frame))
		var lits []float32
		ns, _ := timed(func() {
			for i, orig := range frame {
				if sq.valid != nil && !sq.valid[i] {
					continue
				}
				bin, _, exact := q.Quantize(float64(prev[i]), float64(orig))
				if exact {
					syms = append(syms, 0)
					lits = append(lits, orig)
					continue
				}
				syms = append(syms, uint32(bin))
			}
		})
		a.quantNs += ns
		a.quantPoints += float64(len(syms))
		a.literals += float64(len(lits))
		a.interpPoints += float64(len(syms)) // the base of quant.literal_frac
		var enc []byte
		ns, _ = timed(func() { enc = entropy.EncodeBlock(entropy.Huffman, syms) })
		a.encKernels += ns
		a.entBytes += float64(len(enc))
		a.entSyms += float64(len(syms))
		a.entropyParts(syms, entropy.Huffman)
		litRaw := make([]byte, 4*len(lits))
		for i, v := range lits {
			binary.LittleEndian.PutUint32(litRaw[4*i:], math.Float32bits(v))
		}
		size := 0
		for _, src := range [][]byte{enc, litRaw} {
			var out, back []byte
			ns, alloc := timed(func() { out = lossless.Encode(be, src) })
			a.llEncNs += ns
			a.llEncBytes += float64(len(src))
			a.llAlloc += alloc
			a.llCalls++
			a.llIn += float64(len(src))
			a.llOut += float64(len(out))
			var err error
			ns, _ = timed(func() { back, err = lossless.Decode(out) })
			if err != nil {
				return fmt.Errorf("replay frame %d: %w", t, err)
			}
			a.llDecNs += ns
			a.llDecBytes += float64(len(back))
			size += uvarintLen(len(out)) + len(out)
		}
		var dec []uint32
		var err error
		ns, _ = timed(func() { dec, err = entropy.DecodeBlock(enc) })
		if err == nil && len(dec) != len(syms) {
			err = fmt.Errorf("%d symbols, want %d", len(dec), len(syms))
		}
		if err != nil {
			return fmt.Errorf("replay frame %d: entropy decode: %w", t, err)
		}
		a.hDecNs += ns
		a.hDecSyms += float64(len(dec))
		if size != infos[t].PayloadBytes {
			return fmt.Errorf("replay frame %d: payload %d bytes, writer wrote %d", t, size, infos[t].PayloadBytes)
		}
		a.ops++
	}
	return nil
}

// uvarintLen is the encoded size of a length prefix.
func uvarintLen(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }
