package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cliz"
	"cliz/internal/datagen"
)

// archiveScale sizes the archive fields: SSH (264×96×80), Hurricane-T
// (25×125×125) and Tsfc (96×96×80).
const archiveScale = 0.25

var (
	archiveFields = []string{"SSH", "Hurricane-T", "Tsfc"}
	archiveBounds = []float64{1e-2, 1e-4}
)

// archiveCase is one (field, bound) with the pipeline tuned for it.
type archiveCase struct {
	*field
	pipe  cliz.Pipeline
	valid []bool
}

type archiveState struct {
	cases []*archiveCase
	probe *seekProbe
	// probeWant is the pipeline AutoTune chose for the probe's frame: the
	// target of archive's tune_s, a small 2-D field, so the probe costs a
	// fraction of a pass.
	probeWant string
}

// setupArchive generates the seeded fields and tunes each pipeline once,
// the paper's amortized offline stage. The tuning runs on the field's
// unshifted reference, as an archive tunes once per dataset family and then
// compresses new data of the family with that pipeline: the seeded shift
// changes every value, and tuning the shifted field itself flips the tuner
// between near-tied pipelines of different speed (SSH at 1e-2 between
// perm=021 and perm=201, with and without alpha=1.25) from seed to seed.
func setupArchive(seed int64, m *meter) (*archiveState, error) {
	rng := rand.New(rand.NewSource(seed))
	st := &archiveState{}
	for _, name := range archiveFields {
		ref, err := datagen.ByName(name, archiveScale)
		if err != nil {
			return nil, err
		}
		d, err := seeded(name, archiveScale, rng)
		if err != nil {
			return nil, err
		}
		ds := public(d)
		valid, err := cliz.ValidityOf(ds)
		if err != nil {
			return nil, err
		}
		for _, rel := range archiveBounds {
			f, err := newField(ds, rel)
			if err != nil {
				return nil, err
			}
			pipe, _, err := cliz.AutoTune(public(ref), cliz.Rel(rel), &cliz.TuneOptions{Context: m.ctx()})
			if err != nil {
				return nil, err
			}
			st.cases = append(st.cases, &archiveCase{field: f, pipe: pipe, valid: valid})
		}
	}
	probe, err := newSeekProbe(seed)
	if err != nil {
		return nil, err
	}
	st.probe = probe
	pipe, _, err := cliz.AutoTune(probe.frame.ds, cliz.Rel(probe.frame.rel), &cliz.TuneOptions{Context: m.ctx()})
	if err != nil {
		return nil, err
	}
	st.probeWant = pipe.String()
	return st, nil
}

// runArchive is the archive workload: cliz.Compress then cliz.Decompress,
// single-threaded, over every case, in passes; every decode is checked.
func runArchive(o options) (*report, error) {
	rep := newReport()
	// Two set-ups, as few as a median allows: each runs six full AutoTune
	// searches, several seconds.
	st, setupS, err := timeSetup(2, func(m *meter) (*archiveState, error) {
		return setupArchive(o.seed, m)
	}, nil)
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setupS
	var lay *layerAcc
	if o.trace {
		lay = &layerAcc{}
	}

	// Per case, the scaled compress and decompress seconds of each pass.
	comp := make([][]float64, len(st.cases))
	dec := make([][]float64, len(st.cases))
	var opLat []float64
	var inBytes, outBytes float64
	ops, passes := 0, 0
	// The other end-to-end metrics, probed every pass: the tuner on the
	// probe frame, the estimator on each field at 1e-2, and seeks.
	side := &sideProbes{
		tune:  []tuneTarget{{st.probe.frame, st.probeWant}},
		seek:  st.probe,
		tuneN: 2, estN: 1, seekN: 16,
		rng: rand.New(rand.NewSource(o.seed)),
	}
	for _, c := range st.cases {
		if c.rel == archiveBounds[0] {
			side.est = append(side.est, c.field)
		}
	}
	runtime.GC() // set-up's garbage is not the timed phase's to collect
	m := newMeter()
	rt0 := readRuntime()
	start := time.Now()
	for time.Since(start).Seconds() < o.seconds || passes < 2 {
		for ci, c := range st.cases {
			var encTrace, decTrace *cliz.Trace
			copts := []cliz.Option{cliz.WithWorkers(1), cliz.WithContext(m.ctx())}
			dopts := []cliz.Option{cliz.WithWorkers(1), cliz.WithContext(m.ctx())}
			if lay != nil {
				encTrace, decTrace = &cliz.Trace{}, &cliz.Trace{}
				copts = append(copts, cliz.WithTrace(encTrace))
				dopts = append(dopts, cliz.WithTrace(decTrace))
			}
			m.begin()
			blob, _, err := cliz.Compress(c.ds, cliz.Rel(c.rel), &c.pipe, copts...)
			cS, cWall := m.end(), m.wall()
			if err != nil {
				rep.op(fmt.Errorf("compress %s: %w", c.name, err))
				continue
			}
			m.begin()
			out, _, err := cliz.Decompress(blob, dopts...)
			dS, dWall := m.end(), m.wall()
			if err != nil {
				rep.op(fmt.Errorf("decompress %s: %w", c.name, err))
				continue
			}
			ops++
			comp[ci] = append(comp[ci], cS)
			dec[ci] = append(dec[ci], dS)
			opLat = append(opLat, 1e3*(cS+dS))
			inBytes += c.mb * 1e6
			outBytes += float64(len(blob))
			err = checkDecoded(c.ds.Data, out, c.valid, c.abs, c.ds.FillValue)
			if err == nil && lay != nil {
				err = lay.replayOp(op{
					ds: c.ds, blob: blob, kind: cliz.EntropyHuffman,
					encWall: cWall, decWall: dWall,
					encTrace: encTrace, decTrace: decTrace, decoded: out,
				})
			}
			rep.op(wrap(c.name, err))
		}
		side.pass(rep, m)
		passes++
	}
	rt1 := readRuntime()
	runtimeMetrics(rep, rt0, rt1, ops)

	// A pass over every case at each case's median time: one slow pass
	// does not move it.
	var mb, cS, dS float64
	for ci, c := range st.cases {
		mb += c.mb
		cS += median(comp[ci])
		dS += median(dec[ci])
	}
	rep.e2e["compress_mb_s"] = mb / cS
	rep.e2e["decompress_mb_s"] = mb / dS
	rep.e2e["ratio"] = inBytes / outBytes
	// Percentiles over the cases of each case's median compress+decompress
	// time. The six cases are six clusters of op times, so a pooled p50
	// would sit on the edge between two of them, and a pooled p95 would be
	// one of the slowest case's few slowest ops: the machine's noise, not
	// the program's cost.
	caseLat := make([]float64, len(st.cases))
	for ci := range st.cases {
		caseLat[ci] = 1e3 * (median(comp[ci]) + median(dec[ci]))
	}
	rep.e2e["latency_p50_ms"] = percentile(caseLat, 50)
	rep.e2e["latency_p95_ms"] = percentile(caseLat, 95)
	rep.e2e["throughput_rps"] = float64(len(st.cases)) / (cS + dS)
	side.finish(rep)
	rep.meta["passes"] = passes
	rep.meta["samples_latency"] = len(opLat)
	q1, q3 := quartiles(opLat)
	rep.meta["latency_quartiles_ms"] = []float64{q1, q3}
	rep.meta["speed"] = m.speed()
	pipes := map[string]string{}
	for _, c := range st.cases {
		pipes[c.name] = c.pipe.String()
	}
	rep.meta["pipelines"] = pipes

	if lay != nil {
		if err := lay.finish(rep); err != nil {
			return nil, err
		}
		rep.layer["estimate.accept_frac"] = float64(side.accepted) / float64(max(side.calls, 1))
		zeroLayers(rep)
	}
	return rep, nil
}
