package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"cliz/internal/dataset"
	"cliz/internal/grid"
	"cliz/internal/predict"
	"cliz/internal/trace"
)

// TuneConfig controls the offline auto-tuning stage (paper §VI-A).
type TuneConfig struct {
	// SamplingRate is the expected fraction of the dataset used for
	// testing; 0 selects 1% (the rate used in the paper's §VII-C1).
	// A rate ≥ 1 tests every pipeline on the whole dataset.
	SamplingRate float64
	// MaxPipelines caps the number of candidates (deterministic stride
	// subsampling keeps the space representative); 0 selects 512.
	MaxPipelines int
	// DisablePeriod / DisableClassify remove those stages from the search
	// space (used by the paper's ablations, Tables V–VI).
	DisablePeriod   bool
	DisableClassify bool
	// FixedPeriod overrides FFT-based detection (0 = detect).
	FixedPeriod int
	// EnableLorenzo adds the Lorenzo predictor as a third fitting arm
	// (an extension beyond the paper's {linear, cubic} space; enabling it
	// grows the candidate counts by 50%).
	EnableLorenzo bool
	// SampleRows is the number of rows for period detection (0 = 10, as in
	// the paper's Fig. 8).
	SampleRows int
}

// LevelAlphas is the level-wise error-bound ladder AutoTune searches after
// the pipeline search. It is exported so the fast estimator draws its
// LevelAlpha from the same set — a pipeline knob the estimator can emit but
// the tuner would never select is a contract violation (see
// internal/estimate's breakpoint contract test).
var LevelAlphas = []float64{1, 1.25, 1.5, 1.75, 2}

// Candidate is one tested pipeline with its sample results.
type Candidate struct {
	Pipe        Pipeline
	SampleBytes int
	Ratio       float64 // estimated compression ratio on the sample
	Duration    time.Duration
}

// TuneReport documents an auto-tuning run.
type TuneReport struct {
	Period        int // detected (or forced) period; 0 if none
	SamplePoints  int
	Candidates    []Candidate
	Best          Pipeline
	BestRatio     float64
	TotalDuration time.Duration
}

// EnumeratePipelines lists the candidate pipelines for a dataset of the
// given rank: period on/off × classification on/off × all permutations ×
// all adjacent fusions × {linear, cubic}. For a periodic 3D dataset this is
// the paper's 2·2·6·4·2 = 192; without periodicity, 96.
func EnumeratePipelines(rank int, period int, useMask bool, tc TuneConfig) []Pipeline {
	periodOpts := []int{0}
	if period > 0 && !tc.DisablePeriod {
		periodOpts = append(periodOpts, period)
	}
	classifyOpts := []bool{false}
	if !tc.DisableClassify {
		classifyOpts = append(classifyOpts, true)
	}
	perms := grid.Permutations(rank)
	fusions := grid.Compositions(rank)
	fits := []predict.Fitting{predict.Linear, predict.Cubic}
	if tc.EnableLorenzo {
		fits = append(fits, predict.Lorenzo)
	}
	var out []Pipeline
	for _, per := range periodOpts {
		for _, cls := range classifyOpts {
			for _, perm := range perms {
				for _, fus := range fusions {
					for _, fit := range fits {
						out = append(out, Pipeline{
							Perm:     perm,
							Fusion:   fus,
							Fitting:  fit,
							Classify: cls,
							UseMask:  useMask,
							Period:   per,
						})
					}
				}
			}
		}
	}
	maxP := tc.MaxPipelines
	if maxP == 0 {
		maxP = 512
	}
	if len(out) > maxP {
		stride := (len(out) + maxP - 1) / maxP
		sub := make([]Pipeline, 0, maxP)
		for i := 0; i < len(out); i += stride {
			sub = append(sub, out[i])
		}
		out = sub
	}
	return out
}

// sample holds the tuner's concatenated test data.
type sample struct {
	data  []float32
	dims  []int
	valid []bool // nil when the dataset has no mask
}

// sampleConcat extracts the tuning sample (paper §VI-A): 2^n blocks centred
// at 1/3 and 2/3 of each dimension, each side (1/2)·rate^(1/n) of the full
// side, concatenated along dimension 0 into a single test dataset. Because
// the blocks' horizontal windows differ, the sample's validity is carried as
// a per-point bitmap. For periodic datasets the blocks' time extents are
// widened to whole multiples of the period and their time origins snapped to
// phase 0, so the concatenated time axis stays phase-aligned and periodic
// candidates remain testable.
func sampleConcat(ds *dataset.Dataset, rate float64, period int) sample {
	var validOrig []bool
	if ds.Mask != nil {
		validOrig, _ = ds.Mask.Broadcast(ds.Dims)
	}
	if rate >= 1 {
		return sample{data: ds.Data, dims: ds.Dims, valid: validOrig}
	}
	// A minimum block side of 12 keeps the cubic predictor's ±3-stride
	// references meaningful inside a block — the paper (§VI-A) notes that
	// petite blocks systematically disadvantage cubic fitting.
	blocks := grid.SampleBlocks(ds.Dims, rate, 12)
	if period > 0 {
		nT := ds.Dims[0]
		for i := range blocks {
			want := blocks[i].Size[0]
			if want < 2*period {
				want = 2 * period
			}
			want = (want + period - 1) / period * period
			if want > nT {
				want = nT / period * period
				if want < period {
					want = nT
				}
			}
			org := blocks[i].Origin[0]
			org -= org % period
			if org+want > nT {
				org = nT - want
				if org > 0 {
					org -= org % period
				}
				if org < 0 {
					org = 0
				}
			}
			blocks[i].Origin[0] = org
			blocks[i].Size[0] = want
		}
	}
	if validOrig != nil {
		for i := range blocks {
			blocks[i] = nudgeBlockToValid(blocks[i], ds.Dims, validOrig)
		}
	}
	// Periodic data stacks along a spatial axis so every time series in the
	// sample is a coherent series from one block; otherwise dim 0.
	axis := 0
	if period > 0 && len(ds.Dims) >= 2 {
		axis = 1
	}
	data, sdims := grid.ConcatBlocksAxis(ds.Data, ds.Dims, blocks, axis)
	var svalid []bool
	if validOrig != nil {
		svalid, _ = grid.ConcatBlocksAxis(validOrig, ds.Dims, blocks, axis)
	}
	return sample{data: data, dims: sdims, valid: svalid}
}

// sampleCentral extracts a single centred block covering about rate of the
// dataset volume. Unlike the 2^n-block stage-1 sample it has no block seams,
// so the refinement stage ranks predictors on data whose smoothness
// structure matches the full field (seams systematically penalize the
// long-range cubic fitting). Periodic data keeps a phase-aligned time extent
// of at least two periods.
func sampleCentral(ds *dataset.Dataset, rate float64, period int) sample {
	var validOrig []bool
	if ds.Mask != nil {
		validOrig, _ = ds.Mask.Broadcast(ds.Dims)
	}
	if rate >= 1 {
		return sample{data: ds.Data, dims: ds.Dims, valid: validOrig}
	}
	n := len(ds.Dims)
	frac := math.Pow(rate, 1/float64(n))
	org := make([]int, n)
	size := make([]int, n)
	for i, d := range ds.Dims {
		s := int(frac * float64(d))
		if s < 12 {
			s = 12
		}
		if s > d {
			s = d
		}
		size[i] = s
		org[i] = (d - s) / 2
	}
	if period > 0 {
		nT := ds.Dims[0]
		want := size[0]
		if want < 2*period {
			want = 2 * period
		}
		want = (want + period - 1) / period * period
		if want > nT {
			want = nT / period * period
			if want < period {
				want = nT
			}
		}
		o := org[0] - org[0]%period
		if o+want > nT {
			o = nT - want
			if o > 0 {
				o -= o % period
			}
			if o < 0 {
				o = 0
			}
		}
		org[0], size[0] = o, want
	}
	blk := grid.Block{Origin: org, Size: size}
	if validOrig != nil {
		blk = nudgeBlockToValid(blk, ds.Dims, validOrig)
	}
	data := grid.Extract(ds.Data, ds.Dims, blk)
	var svalid []bool
	if validOrig != nil {
		svalid = grid.Extract(validOrig, ds.Dims, blk)
	}
	return sample{data: data, dims: size, valid: svalid}
}

// nudgeBlockToValid shifts a sample block so it actually covers valid data.
// The paper's fixed 1/3–2/3 block centres can land entirely inside masked
// regions (e.g. the mid-latitudes of an ice field), leaving the tuner to
// rank pipelines on an empty sample; a coordinate-descent scan over a few
// candidate origins per dimension keeps the block where data lives.
func nudgeBlockToValid(b grid.Block, dims []int, valid []bool) grid.Block {
	count := func(blk grid.Block) int {
		vs := grid.Extract(valid, dims, blk)
		n := 0
		for _, ok := range vs {
			if ok {
				n++
			}
		}
		return n
	}
	best := b
	bestN := count(b)
	vol := grid.Volume(b.Size)
	if bestN*2 >= vol { // already mostly valid
		return best
	}
	fracs := []float64{0, 1.0 / 6, 1.0 / 3, 0.5, 2.0 / 3, 5.0 / 6, 1}
	for ax := range dims {
		cur := best
		for _, f := range fracs {
			cand := grid.Block{
				Origin: append([]int(nil), cur.Origin...),
				Size:   cur.Size,
			}
			o := int(f * float64(dims[ax]-cur.Size[ax]))
			if o < 0 {
				o = 0
			}
			cand.Origin[ax] = o
			if n := count(cand); n > bestN {
				best, bestN = cand, n
			}
		}
	}
	return best
}

// AutoTune runs the offline stage: it detects periodicity, samples the
// dataset, tests every candidate pipeline on the sample and returns the best
// one (by estimated compression ratio) together with a full report.
func AutoTune(ds *dataset.Dataset, eb float64, tc TuneConfig, opt Options) (Pipeline, *TuneReport, error) {
	if err := ds.Validate(); err != nil {
		return Pipeline{}, nil, err
	}
	start := time.Now()
	// Candidate evaluation loops run untraced — hundreds of tiny pipeline
	// runs would flood the collector; the tuner records its own coarse
	// stages into the caller's collector instead.
	tcol := opt.Trace
	opt.Trace = nil
	rate := tc.SamplingRate
	if rate == 0 {
		rate = 0.01
	}
	sp := trace.Begin(tcol, "tune/detect-period")
	period := 0
	if ds.Periodic && !tc.DisablePeriod {
		if tc.FixedPeriod > 0 {
			period = tc.FixedPeriod
		} else {
			period = DetectPeriod(ds, tc.SampleRows)
		}
	}
	sp.EndFull(0, 0, int64(period), nil)
	sp = trace.Begin(tcol, "tune/sample")
	smp := sampleConcat(ds, rate, period)
	samplePoints := grid.Volume(smp.dims)
	sp.EndFull(int64(len(ds.Data))*4, int64(samplePoints)*4, int64(samplePoints), nil)
	sp = trace.Begin(tcol, "tune/search")
	cands := EnumeratePipelines(len(ds.Dims), period, ds.Mask != nil, tc)
	report := &TuneReport{Period: period, SamplePoints: samplePoints}
	bestIdx := -1
	for _, p := range cands {
		// Poll per candidate, not per stage: compressGeneral swallows
		// nothing here, but candidate errors are skipped below, so an
		// interrupt inside a candidate run must be re-raised explicitly.
		if err := interrupted(opt.Interrupt); err != nil {
			return Pipeline{}, nil, err
		}
		t0 := time.Now()
		var v validity
		if p.UseMask {
			v.pts = smp.valid
		}
		blob, _, err := compressGeneral(smp.data, smp.dims, v, eb, p, ds.FillValue, opt)
		if err != nil {
			continue
		}
		// Estimated full-data size per point. For periodic candidates the
		// template is a fixed cost amortized over the number of cycles: the
		// sample spans fewer cycles than the full dataset, so scale the
		// template's contribution by sampleTime/fullTime before ranking —
		// otherwise short samples systematically undervalue periodicity.
		effective := float64(len(blob))
		if p.Period > 0 && smp.dims[0] < ds.Dims[0] {
			if tmplLen, restLen, ok := periodicSectionSizes(blob); ok {
				amort := float64(smp.dims[0]) / float64(ds.Dims[0])
				effective = float64(restLen) + float64(tmplLen)*amort
			}
		}
		c := Candidate{
			Pipe:        p,
			SampleBytes: len(blob),
			Ratio:       float64(samplePoints) * 4 / effective,
			Duration:    time.Since(t0),
		}
		report.Candidates = append(report.Candidates, c)
		if bestIdx < 0 || c.Ratio > report.Candidates[bestIdx].Ratio {
			bestIdx = len(report.Candidates) - 1
		}
	}
	sp.EndFull(0, 0, int64(len(report.Candidates)), nil)
	if bestIdx < 0 {
		return Pipeline{}, nil, fmt.Errorf("core: auto-tuning found no viable pipeline")
	}
	// Refinement stage: fixed per-blob overheads (Huffman tables, headers,
	// nested template containers) distort the ranking when the sample is
	// tiny, so the leading candidates are re-ranked on an 8×-larger sample.
	best := report.Candidates[bestIdx].Pipe
	bestRatio := report.Candidates[bestIdx].Ratio
	sp = trace.Begin(tcol, "tune/refine")
	refSmp := smp
	if rate < 1 {
		// The refinement sample must carry enough *compressed payload* that
		// candidate differences dominate the fixed per-blob overheads
		// (headers, code tables ≈ a few hundred bytes). At extreme ratios a
		// volume-based sample compresses to almost nothing, so grow the
		// sample until the winner's compressed size reaches minPayload (the
		// stage-1 ratio estimate is itself overhead-dominated there, hence
		// the adaptive loop rather than a one-shot computation).
		const minPayload = 16384.0
		refRate := math.Min(rate*8, 1)
		for attempt := 0; ; attempt++ {
			refSmp = sampleCentral(ds, refRate, period)
			var v validity
			if best.UseMask {
				v.pts = refSmp.valid
			}
			blob, _, err := compressGeneral(refSmp.data, refSmp.dims, v, eb, best, ds.FillValue, opt)
			if err != nil || refRate >= 1 || attempt >= 3 || float64(len(blob)) >= minPayload {
				break
			}
			grow := minPayload / math.Max(float64(len(blob)), 1)
			refRate = math.Min(refRate*math.Max(grow, 2), 1)
		}
		refPoints := grid.Volume(refSmp.dims)
		leaders := topCandidates(report.Candidates, 8)
		refBest := -1.0
		for _, cand := range leaders {
			if err := interrupted(opt.Interrupt); err != nil {
				return Pipeline{}, nil, err
			}
			var v validity
			if cand.Pipe.UseMask {
				v.pts = refSmp.valid
			}
			blob, _, err := compressGeneral(refSmp.data, refSmp.dims, v, eb, cand.Pipe, ds.FillValue, opt)
			if err != nil {
				continue
			}
			effective := float64(len(blob))
			if cand.Pipe.Period > 0 && refSmp.dims[0] < ds.Dims[0] {
				if tmplLen, restLen, ok := periodicSectionSizes(blob); ok {
					amort := float64(refSmp.dims[0]) / float64(ds.Dims[0])
					effective = float64(restLen) + float64(tmplLen)*amort
				}
			}
			r := float64(refPoints) * 4 / effective
			if r > refBest {
				refBest = r
				best = cand.Pipe
				bestRatio = r
			}
		}
	}
	sp.EndFull(0, 0, int64(grid.Volume(refSmp.dims)), nil)
	if best.Period > 0 {
		sp = trace.Begin(tcol, "tune/template")
		// The template is tuned on the refinement sample, not the initial
		// one: the template section often dominates a periodic blob, and a
		// sub-pipeline picked on a tiny sample template generalizes badly to
		// the full field's template (the choice can double the final blob).
		best.Template = tuneTemplate(refSmp, eb, best, opt)
		sp.End()
	}
	// Level-wise error-bound tuning: coarse interpolation levels anchor all
	// finer predictions, so tightening them (α > 1, capped by β) often buys
	// ratio — the same knob QoZ introduced and newer SZ3 adopted. Tuned
	// after the pipeline search so the paper's candidate counts (96/192 for
	// 3D) are preserved.
	sp = trace.Begin(tcol, "tune/alpha")
	bestAlpha, alphaRatio := 1.0, -1.0
	refPoints := grid.Volume(refSmp.dims)
	for _, alpha := range LevelAlphas {
		if err := interrupted(opt.Interrupt); err != nil {
			return Pipeline{}, nil, err
		}
		p := best
		p.LevelAlpha = alpha
		var v validity
		if p.UseMask {
			v.pts = refSmp.valid
		}
		blob, _, err := compressGeneral(refSmp.data, refSmp.dims, v, eb, p, ds.FillValue, opt)
		if err != nil {
			continue
		}
		r := float64(refPoints) * 4 / float64(len(blob))
		if r > alphaRatio {
			alphaRatio = r
			bestAlpha = alpha
		}
	}
	sp.End()
	// tuneTemplate aborts best-effort (it has no error path), so re-check
	// here: a canceled AutoTune must not hand back a half-tuned pipeline.
	if err := interrupted(opt.Interrupt); err != nil {
		return Pipeline{}, nil, err
	}
	best.LevelAlpha = bestAlpha
	report.Best = best
	report.BestRatio = bestRatio
	report.TotalDuration = time.Since(start)
	return best, report, nil
}

// topCandidates returns the k best candidates by estimated ratio, plus the
// best candidate of every discrete (fitting, classification, periodicity)
// arm. Small samples systematically bias some arms (e.g. petite blocks hurt
// cubic fitting, §VI-A), so each arm's champion deserves a second look on
// the larger refinement sample even when the whole top-k comes from another
// arm.
func topCandidates(cands []Candidate, k int) []Candidate {
	sorted := append([]Candidate(nil), cands...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Ratio > sorted[j].Ratio })
	out := sorted
	if len(out) > k {
		out = append([]Candidate(nil), sorted[:k]...)
	}
	seen := map[string]bool{}
	for _, c := range out {
		seen[c.Pipe.String()] = true
	}
	armBest := map[[3]bool]bool{}
	for _, c := range sorted { // descending ratio: first hit per arm wins
		arm := [3]bool{c.Pipe.Fitting == predict.Cubic, c.Pipe.Classify, c.Pipe.Period > 0}
		if armBest[arm] {
			continue
		}
		armBest[arm] = true
		if !seen[c.Pipe.String()] {
			seen[c.Pipe.String()] = true
			out = append(out, c)
		}
	}
	return out
}

// periodicSectionSizes splits a periodic blob's size into the template
// section and everything else (header + residual).
func periodicSectionSizes(blob []byte) (tmplLen, restLen int, ok bool) {
	var b blobRead
	if readBlob(blob, &b) != nil || b.h.flags&flagPeriodic == 0 || b.err() != nil {
		return 0, 0, false
	}
	tmpl := b.section(secTemplate).bytes
	return tmpl, len(blob) - tmpl, true
}

// tuneTemplate picks the best sub-pipeline for the template data (paper
// Table IV notes the template pipeline is tuned separately). It tests
// perm × fusion × fitting on the template extracted from the sample.
func tuneTemplate(smp sample, eb float64, outer Pipeline, opt Options) *Pipeline {
	if smp.dims[0] < outer.Period {
		return nil
	}
	var valid []bool
	if outer.UseMask {
		valid = smp.valid
	}
	tmplData, tmplDims, tmplValid := buildTemplate(smp.data, smp.dims, valid, outer.Period, datagenFill)
	var tv validity
	if tmplValid != nil {
		tv.pts = tmplValid
	}
	rank := len(tmplDims)
	var best *Pipeline
	bestBytes := 0
	for _, perm := range grid.Permutations(rank) {
		if interrupted(opt.Interrupt) != nil {
			return nil
		}
		for _, fus := range grid.Compositions(rank) {
			for _, fit := range []predict.Fitting{predict.Linear, predict.Cubic} {
				p := Pipeline{Perm: perm, Fusion: fus, Fitting: fit, UseMask: tmplValid != nil}
				blob, _, err := compressUnit(tmplData, tmplDims, tv, eb, p, datagenFill, opt)
				if err != nil {
					continue
				}
				if best == nil || len(blob) < bestBytes {
					pc := p
					best = &pc
					bestBytes = len(blob)
				}
			}
		}
	}
	return best
}

// datagenFill mirrors the CESM sentinel; only used for template scratch
// space during tuning, where the exact fill value is irrelevant.
const datagenFill float32 = 9.96921e36
