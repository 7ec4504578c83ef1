package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cliz"
	"cliz/internal/datagen"
)

// tuneScale and tuneRel size the tune workload: SSH (192 candidates) and
// Hurricane-T (96 candidates). CESM-T and SOILLIQ take 20 s per call, too
// slow to repeat.
const (
	tuneScale = 0.25
	tuneRel   = 1e-2
)

var tuneFields = []string{"SSH", "Hurricane-T"}

// codecReps is how many times each pass compresses and decompresses each
// family with its chosen pipeline.
const codecReps = 2

type tuneFamily struct {
	*field
	valid []bool
	want  string // pipeline the set-up's AutoTune chose
}

type tuneState struct {
	fams  []*tuneFamily
	probe *seekProbe
}

// setupTune generates the fields and tunes each once, the choice every
// timed search must repeat. Unlike archive's, these fields do not move with
// the seed: the pipeline the search picks is the workload's output, and a
// seeded shift of even 1e-4 of the range flips SSH between near-tied
// pipelines of different compress speed. The seed orders the families in
// each pass and places the seeks.
func setupTune(seed int64, m *meter) (*tuneState, error) {
	st := &tuneState{}
	for _, name := range tuneFields {
		d, err := datagen.ByName(name, tuneScale)
		if err != nil {
			return nil, err
		}
		ds := public(d)
		f, err := newField(ds, tuneRel)
		if err != nil {
			return nil, err
		}
		valid, err := cliz.ValidityOf(ds)
		if err != nil {
			return nil, err
		}
		pipe, _, err := cliz.AutoTune(ds, cliz.Rel(tuneRel), &cliz.TuneOptions{Context: m.ctx()})
		if err != nil {
			return nil, err
		}
		st.fams = append(st.fams, &tuneFamily{field: f, valid: valid, want: pipe.String()})
	}
	probe, err := newSeekProbe(seed)
	if err != nil {
		return nil, err
	}
	st.probe = probe
	return st, nil
}

// runTune is the tune workload: full-search cliz.AutoTune then
// cliz.Estimate per family, in passes. The chosen pipeline must match the
// set-up's choice, and its full-field compression (timed apart from the
// tuner) gives ratio and the codec rates.
func runTune(o options) (*report, error) {
	rep := newReport()
	st, setupS, err := timeSetup(2, func(m *meter) (*tuneState, error) {
		return setupTune(o.seed, m)
	}, nil)
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setupS
	var lay *layerAcc
	if o.trace {
		lay = &layerAcc{}
	}

	// Per family, the scaled seconds of each pass's calls.
	nf := len(st.fams)
	tuneT, estT := make([][]float64, nf), make([][]float64, nf)
	compT, decT := make([][]float64, nf), make([][]float64, nf)
	var inBytes, outBytes float64
	var ops, passes, accepted, estimates int
	var candidates, samplePts, searchNs, tuneNs float64
	// seek_ms, probed every pass.
	rng := rand.New(rand.NewSource(o.seed))
	side := &sideProbes{seek: st.probe, seekN: 48, rng: rng}
	// Per family, the scaled ms of each AutoTune+Estimate operation.
	famLat := make([][]float64, nf)
	runtime.GC() // set-up's garbage is not the timed phase's to collect
	m := newMeter()
	rt0 := readRuntime()
	start := time.Now()
	for time.Since(start).Seconds() < o.seconds || passes < 2 {
		for _, fi := range rng.Perm(nf) {
			f := st.fams[fi]
			topt := &cliz.TuneOptions{Context: m.ctx()}
			var tr *cliz.Trace
			if lay != nil {
				tr = &cliz.Trace{}
				topt.Trace = tr
			}
			m.begin()
			pipe, trep, err := cliz.AutoTune(f.ds, cliz.Rel(f.rel), topt)
			tS, tWall := m.end(), m.wall()
			if err != nil {
				rep.op(fmt.Errorf("tune %s: %w", f.name, err))
				continue
			}
			// A search allocates about a gigabyte; a collection still
			// running when it returns would be charged to the estimate.
			runtime.GC()
			m.begin()
			_, er, err := cliz.Estimate(f.ds, cliz.Rel(f.rel), &cliz.TuneOptions{Context: m.ctx()})
			eS := m.end()
			if err != nil {
				rep.op(fmt.Errorf("estimate %s: %w", f.name, err))
				continue
			}
			ops++
			tuneT[fi] = append(tuneT[fi], tS)
			estT[fi] = append(estT[fi], eS)
			famLat[fi] = append(famLat[fi], 1e3*(tS+eS))
			// Two more estimates per pass: a call is 1/50 of a tune, and
			// a pass's one sample would leave estimate_ms too noisy.
			for i := 0; i < 2; i++ {
				m.begin()
				_, _, err := cliz.Estimate(f.ds, cliz.Rel(f.rel), &cliz.TuneOptions{Context: m.ctx()})
				estT[fi] = append(estT[fi], m.end())
				rep.op(wrap("estimate "+f.name, err))
			}
			estimates++
			if er.Confidence >= cliz.MinEstimateConfidence {
				accepted++
			}
			if pipe.String() != f.want {
				rep.op(fmt.Errorf("tune %s chose %q, set-up chose %q", f.name, pipe.String(), f.want))
				continue
			}
			if tr != nil {
				candidates += float64(trep.PipelinesTested)
				tuneNs += float64(tWall)
				for _, s := range tr.Stages() {
					switch s.Name {
					case "tune/search":
						searchNs += float64(s.Duration)
					case "tune/sample":
						samplePts += float64(s.Items)
					}
				}
			}

			// The chosen pipeline on the full field, outside the tuner's
			// timing: a cheaper scorer that picks worse pipelines shows in
			// ratio. It runs codecReps times, so the codec rates have more
			// than the pass's one sample per family; the traced run replays
			// the first.
			for k := 0; k < codecReps; k++ {
				var encTrace, decTrace *cliz.Trace
				copts := []cliz.Option{cliz.WithWorkers(1), cliz.WithContext(m.ctx())}
				dopts := []cliz.Option{cliz.WithWorkers(1), cliz.WithContext(m.ctx())}
				traced := lay != nil && k == 0
				if traced {
					encTrace, decTrace = &cliz.Trace{}, &cliz.Trace{}
					copts = append(copts, cliz.WithTrace(encTrace))
					dopts = append(dopts, cliz.WithTrace(decTrace))
				}
				m.begin()
				blob, _, err := cliz.Compress(f.ds, cliz.Rel(f.rel), &pipe, copts...)
				cS, cWall := m.end(), m.wall()
				if err != nil {
					rep.op(fmt.Errorf("compress %s: %w", f.name, err))
					break
				}
				m.begin()
				dec, _, err := cliz.Decompress(blob, dopts...)
				dS, dWall := m.end(), m.wall()
				if err != nil {
					rep.op(fmt.Errorf("decompress %s: %w", f.name, err))
					break
				}
				compT[fi] = append(compT[fi], cS)
				decT[fi] = append(decT[fi], dS)
				err = checkDecoded(f.ds.Data, dec, f.valid, f.abs, f.ds.FillValue)
				inBytes += f.mb * 1e6
				outBytes += float64(len(blob))
				if err == nil && traced {
					err = lay.replayOp(op{
						ds: f.ds, blob: blob, kind: cliz.EntropyHuffman,
						encWall: cWall, decWall: dWall,
						encTrace: encTrace, decTrace: decTrace, decoded: dec,
					})
				}
				rep.op(wrap(f.name, err))
			}
			runtime.GC() // each search starts from the same clean heap
		}
		side.pass(rep, m)
		passes++
	}
	rt1 := readRuntime()
	runtimeMetrics(rep, rt0, rt1, ops)

	// Each family at its median: one call per family, averaged.
	var tuneS, estS, mb, cS, dS float64
	for fi, f := range st.fams {
		tuneS += median(tuneT[fi]) / float64(nf)
		estS += median(estT[fi]) / float64(nf)
		mb += f.mb
		cS += median(compT[fi])
		dS += median(decT[fi])
	}
	rep.e2e["tune_s"] = tuneS
	rep.e2e["estimate_ms"] = 1e3 * estS
	rep.e2e["compress_mb_s"] = mb / cS
	rep.e2e["decompress_mb_s"] = mb / dS
	rep.e2e["ratio"] = inBytes / outBytes
	// An operation is one family's AutoTune+Estimate. Percentiles are over
	// the families of each family's median: a run has a few operations per
	// family, and its p95 would be the slowest of them, the machine's noise.
	famMed := make([]float64, nf)
	for fi, l := range famLat {
		famMed[fi] = median(l)
	}
	rep.e2e["latency_p50_ms"] = percentile(famMed, 50)
	rep.e2e["latency_p95_ms"] = percentile(famMed, 95)
	rep.e2e["throughput_rps"] = 1 / (tuneS + estS)
	side.finish(rep)
	rep.meta["speed"] = m.speed()
	rep.meta["passes"] = passes
	var opLat []float64
	for _, l := range famLat {
		opLat = append(opLat, l...)
	}
	rep.meta["samples_latency"] = len(opLat)
	q1, q3 := quartiles(opLat)
	rep.meta["latency_quartiles_ms"] = []float64{q1, q3}
	pipes := map[string]string{}
	for _, f := range st.fams {
		pipes[f.name] = f.want
	}
	rep.meta["pipelines"] = pipes

	if lay != nil {
		if err := lay.finish(rep); err != nil {
			return nil, err
		}
		rep.layer["tune.candidates"] = candidates / float64(max(ops, 1))
		rep.layer["tune.ms_per_candidate"] = searchNs / 1e6 / max(candidates, 1)
		rep.layer["tune.search_frac"] = searchNs / max(tuneNs, 1)
		rep.layer["tune.sample_points"] = samplePts / float64(max(ops, 1))
		rep.layer["estimate.accept_frac"] = float64(accepted) / float64(max(estimates, 1))
		zeroLayers(rep)
	}
	return rep, nil
}
