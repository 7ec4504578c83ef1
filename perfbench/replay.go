package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cliz"
	"cliz/internal/bitio"
	"cliz/internal/core"
	"cliz/internal/entropy"
	"cliz/internal/grid"
	"cliz/internal/huffman"
	"cliz/internal/interp"
	"cliz/internal/lossless"
	"cliz/internal/mask"
	"cliz/internal/predict"
	"cliz/internal/quant"
	"cliz/internal/rans"
)

// The layer replay measures each layer from outside the library: for one
// operation it calls the layers' exported entry points on that operation's
// own data, in the order core's compress and decode paths do (serial, one
// worker), timing each call and taking its allocation from MemStats
// deltas. Nothing is added inside the library. The replay is only trusted
// because every replayed operation is checked against the real one: the
// lossless section sizes must equal what core.Inspect reports for the real
// blob, the entropy block sizes must equal the real run's traced entropy
// stage, and the replayed decode must reproduce the real decode bit for bit.

// layerAcc accumulates replayed kernel time and work over operations.
type layerAcc struct {
	interpEncNs, interpDecNs, interpPoints, interpAlloc float64
	quantNs, quantPoints, literals                      float64
	hCountNs, hBuildNs, hEncNs, hDecNs, hAlloc          float64
	hSyms, hDecSyms, hTables, hAlphabet                 float64
	ransEncNs, ransDecNs, ransSyms                      float64
	entBytes, entSyms                                   float64
	llEncNs, llEncBytes, llDecNs, llDecBytes            float64
	llCalls, llAlloc, llIn, llOut                       float64
	maskNs, maskPoints                                  float64
	transNs, transPoints, transCalls                    float64
	// Wall time of the real operations and of the replayed kernels that
	// stand for them, per direction, plus the traced stage shares.
	encWall, encKernels, decWall, decKernels float64
	stageEnc, stageEncTotal                  float64
	stageDec, stageDecTotal                  float64
	ops                                      int
}

// timed runs f and returns its wall time in ns and the bytes it allocated.
func timed(f func()) (float64, float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	return float64(d.Nanoseconds()), float64(b.TotalAlloc - a.TotalAlloc)
}

// op is one real compress+decompress to replay.
type op struct {
	ds       *cliz.Dataset
	blob     []byte
	kind     cliz.EntropyKind
	encWall  time.Duration
	decWall  time.Duration
	encTrace *cliz.Trace // WithTrace of the real compress (may be nil)
	decTrace *cliz.Trace // WithTrace of the real decompress (may be nil)
	decoded  []float32   // the real decode's output
}

// unitPipe is the part of core.Pipeline a unit blob needs for replay,
// parsed back from the pipeline string the blob header carries.
type unitPipe struct {
	perm     []int
	fusion   grid.Fusion
	fit      predict.Fitting
	alpha    float64
	useMask  bool
	classify bool
	period   int
}

// parsePipeline reads core.Pipeline's table notation, e.g.
// "period=12 mask perm=201 fuse=0&1 fit=Linear alpha=1.25".
func parsePipeline(s string, rank int) (unitPipe, error) {
	p := unitPipe{fusion: grid.NoFusion(rank)}
	for _, tok := range strings.Fields(s) {
		k, v, _ := strings.Cut(tok, "=")
		switch k {
		case "mask":
			p.useMask = true
		case "classify":
			p.classify = true
		case "period":
			n, err := strconv.Atoi(v)
			if err != nil {
				return p, err
			}
			p.period = n
		case "perm":
			for _, c := range v {
				p.perm = append(p.perm, int(c-'0'))
			}
		case "fuse":
			f, err := parseFusion(v, rank)
			if err != nil {
				return p, err
			}
			p.fusion = f
		case "fit":
			switch v {
			case "Linear":
				p.fit = predict.Linear
			case "Cubic":
				p.fit = predict.Cubic
			case "Lorenzo":
				p.fit = predict.Lorenzo
			default:
				return p, fmt.Errorf("unknown fitting %q", v)
			}
		case "alpha":
			a, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return p, err
			}
			p.alpha = a
		default:
			return p, fmt.Errorf("unknown pipeline token %q", tok)
		}
	}
	if !grid.ValidPerm(p.perm, rank) || !p.fusion.Valid(rank) {
		return p, fmt.Errorf("pipeline %q does not fit rank %d", s, rank)
	}
	return p, nil
}

// parseFusion reads grid.Fusion's "No" / "0&1,2&3" notation.
func parseFusion(s string, rank int) (grid.Fusion, error) {
	if s == "No" {
		return grid.NoFusion(rank), nil
	}
	groupOf := make([]int, rank) // 0 = alone, else group id
	for gi, g := range strings.Split(s, ",") {
		for _, d := range strings.Split(g, "&") {
			i, err := strconv.Atoi(d)
			if err != nil || i < 0 || i >= rank {
				return grid.Fusion{}, fmt.Errorf("bad fusion %q", s)
			}
			groupOf[i] = gi + 1
		}
	}
	var groups []int
	for i := 0; i < rank; {
		j := i + 1
		for groupOf[i] != 0 && j < rank && groupOf[j] == groupOf[i] {
			j++
		}
		groups = append(groups, j-i)
		i = j
	}
	return grid.Fusion{Groups: groups}, nil
}

// levelEBFactor mirrors core's level-wise bound scaling for a level alpha.
func levelEBFactor(alpha float64) func(int) float64 {
	if alpha <= 1 {
		return nil
	}
	return func(level int) float64 {
		if level < 1 {
			level = 1
		}
		return 1 / math.Min(math.Pow(alpha, float64(level-1)), 4)
	}
}

// unitResult is what one replayed unit produced.
type unitResult struct {
	recon   []float32 // encoder-side reconstruction (original layout)
	decoded []float32 // replayed decode (original layout)
	sizes   map[string]int
	entropy int
	kernels float64 // ns of replayed encode kernels
	decKern float64 // ns of replayed decode kernels
}

// replayUnit replays compressUnit and decompressUnit for one unit blob.
// valid is the per-point validity in original layout (nil: all valid); hm,
// when set, is the horizontal mask the unit serializes.
func (a *layerAcc) replayUnit(data []float32, dims []int, hm *mask.Map, valid []bool,
	eb float64, p unitPipe, fill float32, kind entropy.Kind) (*unitResult, error) {

	res := &unitResult{sizes: map[string]int{}}
	vol := grid.Volume(dims)
	var err error
	if hm != nil {
		ns, _ := timed(func() { valid, err = hm.Broadcast(dims) })
		if err != nil {
			return nil, err
		}
		a.maskNs += ns
		a.maskPoints += float64(vol)
		res.kernels += ns
	}
	transpose := func(f func()) {
		ns, _ := timed(f)
		a.transNs += ns
		a.transPoints += float64(vol)
		a.transCalls++
		res.kernels += ns
	}
	lay, fused := grid.FusedLayout(dims, p.perm, p.fusion)
	var work []float32
	var tvalid []bool
	var tdims []int
	if fused {
		if valid != nil {
			transpose(func() { tvalid, err = grid.Transpose(valid, dims, p.perm) })
		}
		work = append([]float32(nil), data...)
	} else {
		tdims = grid.PermuteDims(dims, p.perm)
		transpose(func() { work, err = grid.Transpose(data, dims, p.perm) })
		if err == nil && valid != nil {
			transpose(func() { tvalid, err = grid.Transpose(valid, dims, p.perm) })
		}
		lay = grid.IdentityLayout(p.fusion.Apply(tdims))
	}
	if err != nil {
		return nil, err
	}
	cfg := interp.Config{
		EB: eb, Radius: quant.DefaultRadius, Fitting: p.fit, Valid: tvalid,
		FillValue: fill, LevelEBFactor: levelEBFactor(p.alpha),
	}
	bins := make([]int32, vol)
	var lits []float32
	ns, alloc := timed(func() { lits, err = interp.CompressLayout(work, lay, cfg, bins) })
	if err != nil {
		return nil, err
	}
	a.interpEncNs += ns
	a.interpAlloc += alloc
	a.interpPoints += float64(vol)
	a.literals += float64(len(lits))
	res.kernels += ns
	a.quantReplay(data, valid, eb)

	syms := make([]uint32, 0, vol)
	for i, b := range bins {
		if tvalid == nil || tvalid[i] {
			syms = append(syms, uint32(b))
		}
	}
	var enc []byte
	ns, _ = timed(func() { enc = entropy.EncodeBlock(kind, syms) })
	res.kernels += ns
	res.entropy = len(enc)
	a.entBytes += float64(len(enc))
	a.entSyms += float64(len(syms))
	a.entropyParts(syms, kind)

	var maskSec []byte
	if hm != nil {
		ns, _ = timed(func() { maskSec = hm.Serialize() })
		a.maskNs += ns
		res.kernels += ns
		res.sizes["mask"] = len(maskSec)
	}
	be := lossless.Flate{Level: 6}
	litRaw := make([]byte, 4*len(lits))
	for i, v := range lits {
		binary.LittleEndian.PutUint32(litRaw[4*i:], math.Float32bits(v))
	}
	var binsSec, litSec []byte
	for _, c := range []struct {
		src []byte
		dst *[]byte
	}{{enc, &binsSec}, {litRaw, &litSec}} {
		ns, alloc := timed(func() { *c.dst = lossless.Encode(be, c.src) })
		a.llEncNs += ns
		a.llEncBytes += float64(len(c.src))
		a.llAlloc += alloc
		a.llCalls++
		a.llIn += float64(len(c.src))
		a.llOut += float64(len(*c.dst))
		res.kernels += ns
	}
	res.sizes["bins"] = len(binsSec)
	res.sizes["literals"] = len(litSec)
	if fused {
		res.recon = work
	} else {
		transpose(func() { res.recon, err = grid.Transpose(work, tdims, grid.InversePerm(p.perm)) })
		if err != nil {
			return nil, err
		}
	}

	// Decode side: mask, bins, literals, reconstruction, unpermute.
	if err := a.replayDecode(res, dims, maskSec, valid, lay, fused, tdims, p, cfg, binsSec, litSec); err != nil {
		return nil, err
	}
	return res, nil
}

// replayDecode replays decompressUnit from the replayed sections.
// maskSec is the serialized horizontal mask (nil: valid is the unit's
// point validity, or nil when unmasked).
func (a *layerAcc) replayDecode(res *unitResult, dims []int, maskSec []byte, valid []bool,
	lay grid.Layout, fused bool, tdims []int, p unitPipe, cfg interp.Config,
	binsSec, litSec []byte) error {

	vol := grid.Volume(dims)
	var err error
	var tvalid []bool
	kern := func(ns float64) { res.decKern += ns }
	if maskSec != nil {
		ns, _ := timed(func() {
			var m *mask.Map
			if m, err = mask.Parse(maskSec); err == nil {
				valid, err = m.Broadcast(dims)
			}
		})
		a.maskNs += ns
		a.maskPoints += float64(vol)
		kern(ns)
		if err != nil {
			return err
		}
	}
	if valid != nil {
		ns, _ := timed(func() { tvalid, err = grid.Transpose(valid, dims, p.perm) })
		a.transNs += ns
		a.transPoints += float64(vol)
		a.transCalls++
		kern(ns)
		if err != nil {
			return err
		}
	}
	var raw, litRaw []byte
	for _, c := range []struct {
		src []byte
		dst *[]byte
	}{{binsSec, &raw}, {litSec, &litRaw}} {
		ns, _ := timed(func() { *c.dst, err = lossless.Decode(c.src) })
		if err != nil {
			return err
		}
		a.llDecNs += ns
		a.llDecBytes += float64(len(*c.dst))
		kern(ns)
	}
	var syms []uint32
	ns, _ := timed(func() { syms, err = entropy.DecodeBlock(raw) })
	if err != nil {
		return err
	}
	kern(ns)
	switch entropy.Kind(raw[0]) {
	case entropy.Huffman:
		a.hDecNs += ns
		a.hDecSyms += float64(len(syms))
	case entropy.RANSInterleaved:
		a.ransDecNs += ns
	}
	bins := make([]int32, vol)
	si := 0
	for i := range bins {
		if tvalid != nil && !tvalid[i] {
			continue
		}
		if si >= len(syms) {
			return fmt.Errorf("replay decode: %d symbols for %d points", len(syms), vol)
		}
		bins[i] = int32(syms[si])
		si++
	}
	lits := make([]float32, len(litRaw)/4)
	for i := range lits {
		lits[i] = math.Float32frombits(binary.LittleEndian.Uint32(litRaw[4*i:]))
	}
	out := make([]float32, vol)
	dcfg := cfg
	dcfg.Valid = tvalid
	ns, _ = timed(func() { err = interp.DecompressLayout(bins, lits, lay, dcfg, out) })
	if err != nil {
		return err
	}
	a.interpDecNs += ns
	kern(ns)
	if !fused {
		ns, _ := timed(func() { out, err = grid.Transpose(out, tdims, grid.InversePerm(p.perm)) })
		a.transNs += ns
		a.transPoints += float64(vol)
		a.transCalls++
		kern(ns)
		if err != nil {
			return err
		}
	}
	res.decoded = out
	return nil
}

// quantReplay times quant.Quantize over the unit's valid points, each
// predicted by its predecessor in memory order. The real call sits inside
// the interpolation kernel with an interpolated prediction; the replay
// measures the quantizer's own cost on the same values and bound.
func (a *layerAcc) quantReplay(data []float32, valid []bool, eb float64) {
	q := quant.New(eb, quant.DefaultRadius)
	prev := 0.0
	n := 0
	var sink int32
	ns, _ := timed(func() {
		for i, v := range data {
			if valid != nil && !valid[i] {
				continue
			}
			bin, rv, _ := q.Quantize(prev, float64(v))
			sink += bin
			prev = rv
			n++
		}
	})
	_ = sink
	a.quantNs += ns
	a.quantPoints += float64(n)
}

// entropyParts times the entropy coder's sub-kernels on the unit's
// symbols: Huffman count, build and encode (always, they are what the
// Huffman layer costs), and interleaved rANS when the op used it.
func (a *layerAcc) entropyParts(syms []uint32, kind entropy.Kind) {
	var freqs map[uint32]uint64
	var c *huffman.Codec
	var total float64
	ns, alloc := timed(func() { freqs = huffman.CountFreqs(syms) })
	a.hCountNs += ns
	total += alloc
	ns, alloc = timed(func() { c = huffman.Build(freqs) })
	a.hBuildNs += ns
	total += alloc
	ns, alloc = timed(func() {
		w := bitio.NewWriter(len(syms) / 2)
		_ = c.Encode(syms, w) // cannot fail: codec built from these symbols
		_ = w.Bytes()
	})
	a.hEncNs += ns
	total += alloc
	a.hAlloc += total
	a.hSyms += float64(len(syms))
	a.hTables++
	a.hAlphabet += float64(c.Alphabet())
	if kind == entropy.RANSInterleaved {
		ns, _ := timed(func() { _, _ = rans.EncodeInterleavedBlock(syms, rans.DefaultWays) })
		a.ransEncNs += ns
		a.ransSyms += float64(len(syms))
	}
}

// replayOp replays one real operation and checks the replay against it; a
// mismatch is returned as an error that fails the operation. So is a
// pipeline the replay does not model (classification, Lorenzo): an op the
// replay cannot check must not pass as one it checked.
func (a *layerAcc) replayOp(o op) error {
	info, err := core.Inspect(o.blob)
	if err != nil {
		return fmt.Errorf("replay inspect: %w", err)
	}
	valid, err := cliz.ValidityOf(o.ds)
	if err != nil {
		return fmt.Errorf("replay validity: %w", err)
	}
	var hm *mask.Map
	if o.ds.MaskRegions != nil {
		n := len(o.ds.Dims)
		hm = mask.New(o.ds.Dims[n-2], o.ds.Dims[n-1], o.ds.MaskRegions)
	}
	kind := entropy.Kind(o.kind)
	top, err := parsePipeline(info.Pipeline, len(info.Dims))
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	units := []*core.BlobInfo{info}
	if info.Kind == "periodic" {
		units = info.Children
	}
	for _, u := range units {
		p, err := parsePipeline(u.Pipeline, len(u.Dims))
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if p.classify || p.fit == predict.Lorenzo {
			return fmt.Errorf("replay: pipeline %q is not modelled (classify, Lorenzo)", u.Pipeline)
		}
	}
	if !top.useMask {
		hm, valid = nil, nil
	}

	var results []*unitResult
	var decoded []float32
	switch info.Kind {
	case "unit":
		r, err := a.replayUnit(o.ds.Data, o.ds.Dims, hm, nil, info.EB, top, info.Fill, kind)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		results = append(results, r)
		decoded = r.decoded
	case "periodic":
		tmpl, tmplDims, tmplValid := buildTemplate(o.ds.Data, o.ds.Dims, valid, top.period, info.Fill)
		tinfo, rinfo := info.Children[0], info.Children[1]
		tp, _ := parsePipeline(tinfo.Pipeline, len(tinfo.Dims))
		rp, _ := parsePipeline(rinfo.Pipeline, len(rinfo.Dims))
		thm, tvalid := hm, []bool(nil)
		if hm == nil || len(o.ds.Dims) < 3 {
			thm, tvalid = nil, tmplValid
		}
		tr, err := a.replayUnit(tmpl, tmplDims, thm, tvalid, tinfo.EB, tp, info.Fill, kind)
		if err != nil {
			return fmt.Errorf("replay template: %w", err)
		}
		residual := subtractTemplate(o.ds.Data, tr.recon, o.ds.Dims, top.period, valid, info.Fill)
		rr, err := a.replayUnit(residual, o.ds.Dims, hm, nil, rinfo.EB, rp, info.Fill, kind)
		if err != nil {
			return fmt.Errorf("replay residual: %w", err)
		}
		results = append(results, tr, rr)
		decoded = addTemplate(rr.decoded, tr.decoded, o.ds.Dims, top.period)
		for i := range decoded {
			if valid != nil && !valid[i] {
				decoded[i] = info.Fill
			}
		}
	default:
		return fmt.Errorf("replay: unsupported blob kind %q", info.Kind)
	}

	// Fidelity: the replay must have produced every section of the real
	// blob but its header, at the same size, the real run's entropy blocks
	// and the real decode.
	for i, r := range results {
		u := units[i]
		for _, s := range u.Sections {
			if s.Name == "header" {
				continue
			}
			got, ok := r.sizes[s.Name]
			if !ok {
				return fmt.Errorf("replay %s: no %s section, blob has %d bytes", u.Kind, s.Name, s.Bytes)
			}
			if got != s.Bytes {
				return fmt.Errorf("replay %s/%s: %d bytes, blob has %d", u.Kind, s.Name, got, s.Bytes)
			}
		}
	}
	if o.encTrace != nil {
		var got []int
		for _, r := range results {
			got = append(got, r.entropy)
		}
		var want []int
		for _, s := range o.encTrace.Stages() {
			if s.Name == "entropy" || strings.HasSuffix(s.Name, "/entropy") {
				want = append(want, int(s.OutBytes))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("replay entropy blocks %v bytes, traced %v", got, want)
		}
	}
	if o.decoded != nil && !equalFloats(decoded, o.decoded) {
		return errors.New("replayed decode differs from the real decode")
	}

	a.ops++
	for _, r := range results {
		a.encKernels += r.kernels
		a.decKernels += r.decKern
	}
	a.encWall += float64(o.encWall.Nanoseconds())
	a.decWall += float64(o.decWall.Nanoseconds())
	if o.encTrace != nil {
		k, t := stageShare(o.encTrace, encodeStages)
		a.stageEnc += k
		a.stageEncTotal += t
	}
	if o.decTrace != nil {
		k, t := stageShare(o.decTrace, decodeStages)
		a.stageDec += k
		a.stageDecTotal += t
	}
	return nil
}

// encodeStages / decodeStages are the traced stages the replayed kernels
// stand for; the rest of "total" is core's orchestration.
var (
	encodeStages = map[string]bool{"mask": true, "permute": true, "predict": true,
		"entropy": true, "lossless": true, "literals": true, "unpermute": true}
	decodeStages = map[string]bool{"mask": true, "entropy-decode": true,
		"literals-decode": true, "reconstruct": true, "unpermute": true}
)

// stageShare sums the kernel stages and the "total" stage of a trace.
func stageShare(t *cliz.Trace, kernels map[string]bool) (kern, total float64) {
	for _, s := range t.Aggregate() {
		switch {
		case s.Name == "total":
			total += float64(s.Duration)
		case kernels[s.Name]:
			kern += float64(s.Duration)
		}
	}
	return kern, total
}

// finish writes the accumulated layer metrics. Its kernel metrics come
// from replayed operations (in stream, delta frames): with none replayed
// they would all read 0, so that is an error. A layer the workload never
// reached reports 0 (BENCHMARK.json lists which layers each workload
// bypasses).
func (a *layerAcc) finish(rep *report) error {
	if a.ops == 0 {
		return errors.New("layer replay: no operation was replayed")
	}
	div := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	l := rep.layer
	l["interp.encode_ns_per_point"] = div(a.interpEncNs, a.interpPoints)
	l["interp.decode_ns_per_point"] = div(a.interpDecNs, a.interpPoints)
	l["interp.alloc_bytes_per_point"] = div(a.interpAlloc, a.interpPoints)
	l["quant.ns_per_point"] = div(a.quantNs, a.quantPoints)
	l["quant.literal_frac"] = div(a.literals, a.interpPoints)
	l["huffman.count_ns_per_symbol"] = div(a.hCountNs, a.hSyms)
	l["huffman.build_us_per_table"] = div(a.hBuildNs, a.hTables) / 1e3
	l["huffman.encode_ns_per_symbol"] = div(a.hEncNs, a.hSyms)
	l["huffman.alloc_bytes_per_symbol"] = div(a.hAlloc, a.hSyms)
	l["huffman.decode_ns_per_symbol"] = div(a.hDecNs, a.hDecSyms)
	l["huffman.alphabet"] = div(a.hAlphabet, a.hTables)
	l["rans.encode_ns_per_symbol"] = div(a.ransEncNs, a.ransSyms)
	l["rans.decode_ns_per_symbol"] = div(a.ransDecNs, a.ransSyms)
	l["entropy.bits_per_symbol"] = div(8*a.entBytes, a.entSyms)
	l["lossless.encode_ns_per_byte"] = div(a.llEncNs, a.llEncBytes)
	l["lossless.decode_ns_per_byte"] = div(a.llDecNs, a.llDecBytes)
	l["lossless.alloc_bytes_per_call"] = div(a.llAlloc, a.llCalls)
	l["lossless.gain"] = div(a.llIn, a.llOut)
	l["mask.ns_per_point"] = div(a.maskNs, a.maskPoints)
	l["grid.transpose_ns_per_point"] = div(a.transNs, a.transPoints)
	l["grid.transpose_calls"] = div(a.transCalls, float64(max(a.ops, 1)))
	l["core.self_frac"] = div(a.encWall-a.encKernels, a.encWall)
	l["core.decode_self_frac"] = div(a.decWall-a.decKernels, a.decWall)
	l["core.stage_frac"] = div(a.stageEnc, a.stageEncTotal)
	l["core.decode_stage_frac"] = div(a.stageDec, a.stageDecTotal)
	rep.meta["replayed_ops"] = a.ops
	return nil
}

// zeroLayers reports 0 for every per-layer metric a workload did not
// reach, so each traced run prints the full per-layer set.
func zeroLayers(rep *report) {
	for name := range layerUnits {
		if strings.HasPrefix(name, "traced.") {
			continue
		}
		if _, ok := rep.layer[name]; !ok {
			rep.layer[name] = 0
		}
	}
}

// buildTemplate mirrors core's periodic template: the per-phase mean of
// the valid points (the replay needs the template's exact values to
// reproduce the template unit it compresses).
func buildTemplate(data []float32, dims []int, valid []bool, period int, fill float32) ([]float32, []int, []bool) {
	nT := dims[0]
	plane := len(data) / nT
	tmplDims := append([]int{period}, dims[1:]...)
	sum := make([]float64, period*plane)
	cnt := make([]int32, period*plane)
	for t := 0; t < nT; t++ {
		off, toff := t*plane, (t%period)*plane
		for p := 0; p < plane; p++ {
			if valid == nil || valid[off+p] {
				sum[toff+p] += float64(data[off+p])
				cnt[toff+p]++
			}
		}
	}
	out := make([]float32, period*plane)
	var tmplValid []bool
	if valid != nil {
		tmplValid = make([]bool, period*plane)
	}
	for i := range out {
		if cnt[i] == 0 {
			out[i] = fill
			continue
		}
		if tmplValid != nil {
			tmplValid[i] = true
		}
		out[i] = float32(sum[i] / float64(cnt[i]))
	}
	return out, tmplDims, tmplValid
}

// subtractTemplate mirrors core's residual: data minus the template's
// reconstruction, fill at masked points.
func subtractTemplate(data, tmpl []float32, dims []int, period int, valid []bool, fill float32) []float32 {
	plane := len(data) / dims[0]
	out := make([]float32, len(data))
	for i, v := range data {
		if valid != nil && !valid[i] {
			out[i] = fill
			continue
		}
		t, p := i/plane, i%plane
		out[i] = v - tmpl[(t%period)*plane+p]
	}
	return out
}

// addTemplate mirrors core's compose step.
func addTemplate(residual, tmpl []float32, dims []int, period int) []float32 {
	plane := len(residual) / dims[0]
	out := make([]float32, len(residual))
	for i, v := range residual {
		t, p := i/plane, i%plane
		out[i] = v + tmpl[(t%period)*plane+p]
	}
	return out
}
