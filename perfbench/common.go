package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	rtm "runtime/metrics"

	"cliz"
	"cliz/internal/datagen"
	"cliz/internal/dataset"
)

// field is one generated input with its absolute error bound, computed by
// the benchmark itself (rel × valid value range) so the output check does
// not trust the codec's own bound resolution.
type field struct {
	name string
	rel  float64
	ds   *cliz.Dataset
	abs  float64
	mb   float64 // input size in MB (1e6 bytes)
}

// seeded generates a named datagen field and shifts every valid value by a
// seeded offset of up to 1e-4 of the field's value range. The datagen fields
// are fixed functions of their scale; the shift changes the bits of every
// input value while keeping the field's structure — and so the layers it
// loads, the pipeline the tuner picks and the ratio it reaches — the same.
func seeded(name string, scale float64, rng *rand.Rand) (*dataset.Dataset, error) {
	d, err := datagen.ByName(name, scale)
	if err != nil {
		return nil, err
	}
	var valid []bool
	if d.Mask != nil {
		if valid, err = d.Mask.Broadcast(d.Dims); err != nil {
			return nil, err
		}
	}
	shift(rng, valid, d.Data)
	return d, nil
}

// shift adds one seeded offset, up to 1e-4 of the value range of the valid
// points, to every valid value of every grid. Larger offsets flip the
// tuner between near-tied pipelines: at 1% of the range Hurricane-T at
// 1e-2 tunes to perm=102 Linear (ratio ~127) on half the seeds and to
// perm=012 Cubic (~159) on the others.
func shift(rng *rand.Rand, valid []bool, grids ...[]float32) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range grids[0] {
		if valid == nil || valid[i] {
			lo, hi = math.Min(lo, float64(v)), math.Max(hi, float64(v))
		}
	}
	off := float32(rng.Float64() * 1e-4 * (hi - lo))
	for _, g := range grids {
		for i := range g {
			if valid == nil || valid[i] {
				g[i] += off
			}
		}
	}
}

// seededTemporal generates a temporal sequence and shifts every frame by
// one seeded offset, as seeded does for fields.
func seededTemporal(spec datagen.TemporalSpec, rng *rand.Rand) (*datagen.TemporalStream, error) {
	ts, err := datagen.Temporal(spec)
	if err != nil {
		return nil, err
	}
	var valid []bool
	if ts.Mask != nil {
		if valid, err = ts.Mask.Broadcast(ts.Dims); err != nil {
			return nil, err
		}
	}
	shift(rng, valid, ts.Frames...)
	return ts, nil
}

// public converts a generated dataset to the public API's Dataset.
func public(d *dataset.Dataset) *cliz.Dataset {
	ds := &cliz.Dataset{
		Name: d.Name, Data: d.Data, Dims: d.Dims, Lead: cliz.LeadKind(d.Lead),
		Periodic: d.Periodic, FillValue: d.FillValue,
	}
	if d.Mask != nil {
		ds.MaskRegions = d.Mask.Regions
	}
	return ds
}

// newField wraps a dataset with its bound and size.
func newField(ds *cliz.Dataset, rel float64) (*field, error) {
	valid, err := cliz.ValidityOf(ds)
	if err != nil {
		return nil, err
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range ds.Data {
		if valid != nil && !valid[i] {
			continue
		}
		lo = math.Min(lo, float64(v))
		hi = math.Max(hi, float64(v))
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("%s: no value range", ds.Name)
	}
	return &field{
		name: fmt.Sprintf("%s@%g", ds.Name, rel), rel: rel, ds: ds,
		abs: rel * (hi - lo), mb: float64(len(ds.Data)) * 4 / 1e6,
	}, nil
}

// checkDecoded verifies a reconstruction: every valid point within the
// absolute bound, every masked point holding the fill value exactly.
func checkDecoded(orig, dec []float32, valid []bool, abs float64, fill float32) error {
	if len(orig) != len(dec) {
		return fmt.Errorf("decoded %d points, want %d", len(dec), len(orig))
	}
	for i, o := range orig {
		if valid != nil && !valid[i] {
			if math.Float32bits(dec[i]) != math.Float32bits(fill) {
				return fmt.Errorf("masked point %d = %g, want fill %g", i, dec[i], fill)
			}
			continue
		}
		if e := math.Abs(float64(dec[i]) - float64(o)); !(e <= abs) {
			return fmt.Errorf("point %d error %g > bound %g", i, e, abs)
		}
	}
	return nil
}

// equalFloats compares two frames bit for bit.
func equalFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// rtSample is a snapshot of the Go runtime counters the benchmark reports.
type rtSample struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64
	totalCPU   float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]rtm.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	rtm.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rtm.KindUint64:
			return float64(s[i].Value.Uint64())
		case rtm.KindFloat64:
			return s[i].Value.Float64()
		}
		return math.NaN()
	}
	return rtSample{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// runtimeMetrics fills the per-op allocation and GC figures from two
// snapshots around the timed phase.
func runtimeMetrics(rep *report, a, b rtSample, ops int) {
	if ops < 1 {
		ops = 1
	}
	rep.e2e["alloc_mb_per_op"] = (b.allocBytes - a.allocBytes) / 1e6 / float64(ops)
	rep.layer["runtime.gc_cycles_per_op"] = (b.gcCycles - a.gcCycles) / float64(ops)
	frac := 0.0
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		frac = (b.gcCPU - a.gcCPU) / cpu
	}
	rep.layer["runtime.gc_cpu_frac"] = frac
}

// sideProbes measures the end-to-end metrics a workload does not produce
// itself (tune_s, estimate_ms, seek_ms) with a few calls per pass of its
// timed loop. Spread over the whole run, the samples see the same mix of
// the shared machine's fast and slow spells as the workload's own figures;
// timed in a few seconds after the loop, one slow spell moved the whole
// figure. A nil target list (or seek) leaves that metric to the workload.
type sideProbes struct {
	tune  []tuneTarget
	est   []*field
	seek  *seekProbe
	tuneN int // AutoTune calls per target and pass, timed as one span
	estN  int // Estimate calls per field and pass, timed as one span
	seekN int // seeks per pass

	rng      *rand.Rand
	reader   *cliz.StreamReader
	tuneS    [][]float64 // per target: scaled seconds per call
	estMs    [][]float64 // per field: scaled ms per call
	seekLat  []float64
	seekKeys []int
	// accepted counts estimates that reached MinEstimateConfidence.
	accepted, calls int
}

// tuneTarget is a field the tune probe searches, with the pipeline the
// set-up's AutoTune chose for it: every probe call must choose it too.
type tuneTarget struct {
	f    *field
	want string
}

// pass runs one pass's probe calls and checks each.
func (p *sideProbes) pass(rep *report, m *meter) {
	if p.tuneS == nil {
		p.tuneS = make([][]float64, len(p.tune))
		p.estMs = make([][]float64, len(p.est))
	}
	for i, t := range p.tune {
		m.begin()
		var errs []error
		for j := 0; j < p.tuneN; j++ {
			pipe, _, err := cliz.AutoTune(t.f.ds, cliz.Rel(t.f.rel), &cliz.TuneOptions{Context: m.ctx()})
			if err == nil && pipe.String() != t.want {
				err = fmt.Errorf("chose %q, set-up chose %q", pipe.String(), t.want)
			}
			errs = append(errs, err)
		}
		p.tuneS[i] = append(p.tuneS[i], m.end()/float64(p.tuneN))
		for _, err := range errs {
			rep.op(wrap("tune probe "+t.f.name, err))
		}
	}
	for i, f := range p.est {
		m.begin()
		for j := 0; j < p.estN; j++ {
			_, er, err := cliz.Estimate(f.ds, cliz.Rel(f.rel), &cliz.TuneOptions{Context: m.ctx()})
			if !rep.op(wrap("estimate "+f.name, err)) {
				continue
			}
			p.calls++
			if er.Confidence >= cliz.MinEstimateConfidence {
				p.accepted++
			}
		}
		p.estMs[i] = append(p.estMs[i], 1e3*m.end()/float64(p.estN))
	}
	if p.seek != nil && p.seekN > 0 {
		if p.reader == nil {
			r, err := cliz.NewStreamReader(p.seek.blob, cliz.WithWorkers(1))
			if !rep.op(wrap("seek probe reader", err)) {
				return
			}
			p.reader = r
		}
		lat, targets := timeSeeks(rep, m, p.reader, p.seek.seq, p.rng, p.seekN)
		p.seekLat = append(p.seekLat, lat...)
		p.seekKeys = append(p.seekKeys, targets...)
	}
}

// finish writes the probed metrics: tune_s and estimate_ms as the mean
// over targets of each target's median, seek_ms by seekCost.
func (p *sideProbes) finish(rep *report) {
	if len(p.tune) > 0 {
		rep.e2e["tune_s"] = meanOfMedians(p.tuneS)
	}
	if len(p.est) > 0 {
		rep.e2e["estimate_ms"] = meanOfMedians(p.estMs)
	}
	if p.seek != nil {
		rep.e2e["seek_ms"] = seekCost(p.seekLat, p.seekKeys)
		rep.meta["samples_seek"] = len(p.seekLat)
	}
}

// meanOfMedians is the mean over groups of each group's median: the
// expected cost of one call on a uniformly chosen target. Targets differ in
// cost, so pooled samples would form one cluster per target, and a pooled
// median would sit on the edge between two of them.
func meanOfMedians(groups [][]float64) float64 {
	total := 0.0
	for _, g := range groups {
		total += median(g)
	}
	return total / float64(len(groups))
}

// seekProbe is the small stream every workload other than stream measures
// seek_ms on, so that each workload reports every end-to-end metric. It is
// built in set-up from the seeded ADVECT-SSH sequence, whose first frame is
// also the small field archive's tune probe searches.
type seekProbe struct {
	blob  []byte
	seq   [][]float32 // sequential decode, the reference for every seek
	frame *field      // frame 0 at a 1e-3 bound
}

func newSeekProbe(seed int64) (*seekProbe, error) {
	ts, err := seededTemporal(datagen.TemporalScenario(0.25)[0], rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	blob, _, _, err := appendStream(ts, 1e-3, 8, nil, nil)
	if err != nil {
		return nil, err
	}
	seq, _, err := readSequential(blob, nil)
	if err != nil {
		return nil, err
	}
	ds0 := &cliz.Dataset{Name: ts.Name, Data: ts.Frames[0], Dims: ts.Dims, FillValue: ts.Fill}
	if ts.Mask != nil {
		ds0.MaskRegions = ts.Mask.Regions
	}
	f, err := newField(ds0, 1e-3)
	if err != nil {
		return nil, err
	}
	return &seekProbe{blob: blob, seq: seq, frame: f}, nil
}

// seekCost is the mean over target frames of each target's median seek
// time: the expected cost of a seek to a uniformly random frame. A seek's
// cost depends on how many frames it replays, so seek times form one
// cluster per replay depth, and a pooled median would sit on the edge
// between two of them.
func seekCost(lat []float64, targets []int) float64 {
	byTarget := map[int][]float64{}
	for i, t := range targets {
		byTarget[t] = append(byTarget[t], lat[i])
	}
	total := 0.0
	for _, ls := range byTarget {
		total += median(ls)
	}
	return total / float64(len(byTarget))
}

// seekGroup is how many seeks share one speed probe: a seek takes about a
// millisecond, a tenth of a probe.
const seekGroup = 8

// timeSeeks performs n seeded random seeks on r, checks each decoded frame
// against seq, and returns the scaled latencies (ms) and the targets.
func timeSeeks(rep *report, m *meter, r *cliz.StreamReader, seq [][]float32, rng *rand.Rand, n int) ([]float64, []int) {
	targets := make([]int, n)
	for i := range targets {
		targets[i] = rng.Intn(len(seq))
	}
	frames := make([][]float32, n)
	errs := make([]error, n)
	secs, _ := grouped(m, n, seekGroup, func(i int) error {
		if errs[i] = r.Seek(targets[i]); errs[i] == nil {
			frames[i], errs[i] = r.ReadFrame()
		}
		return nil // a failed seek is counted below, and the rest still run
	})
	lat := make([]float64, n)
	for i, t := range targets {
		lat[i] = 1e3 * secs[i]
		err := errs[i]
		if err == nil && !equalFloats(frames[i], seq[t]) {
			err = errors.New("frame differs from sequential decode")
		}
		rep.op(wrap(fmt.Sprintf("seek %d", t), err))
	}
	return lat, targets
}

// wrap prefixes a non-nil error with what failed.
func wrap(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}
