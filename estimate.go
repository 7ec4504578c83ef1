package cliz

import (
	"time"

	"cliz/internal/core"
	"cliz/internal/estimate"
)

// MinEstimateConfidence is the default confidence threshold below which an
// estimate-first tune falls back to the full AutoTune search. Estimate's
// report carries the confidence so callers can apply their own threshold.
const MinEstimateConfidence = estimate.DefaultMinConfidence

// EstimateReport summarizes a fast pipeline estimate.
type EstimateReport struct {
	// Ratio is the predicted full-data compression ratio (uncompressed
	// bytes / predicted compressed bytes) under the estimated pipeline.
	Ratio float64
	// Confidence in [0, 1]: 1 means every heuristic decision was far from
	// a breakpoint and the probe extrapolation was clean. Compare against
	// MinEstimateConfidence to choose estimate vs full search.
	Confidence float64
	// Period is the detected period along the time axis (0 = none).
	Period int
	// Notes documents each heuristic decision and confidence penalty in
	// order — the estimate's transparency contract.
	Notes []string
	// Elapsed is the total estimation wall time.
	Elapsed time.Duration
}

// Estimate predicts the AutoTune winner and its full-data compression ratio
// without running the candidate search: a cheap feature pass over a strided
// sample, a transparent heuristic model nominating a short candidate slate,
// and two probe compressions extrapolating the ratio — tens of milliseconds
// against AutoTune's seconds. The report's Confidence says how much to trust
// it; TuneOptions.EstimateFirst automates the fallback. opt may be nil; only
// the search-space restrictions (DisablePeriod, DisableClassify,
// FixedPeriod) apply to an estimate.
func Estimate(ds *Dataset, eb ErrorBound, opt *TuneOptions) (Pipeline, *EstimateReport, error) {
	ids, err := ds.internal()
	if err != nil {
		return Pipeline{}, nil, err
	}
	abs, err := ids.ResolveBound(eb.Rel, eb.Abs)
	if err != nil {
		return Pipeline{}, nil, err
	}
	var tc core.TuneConfig
	var interrupt func() error
	if opt != nil {
		tc = core.TuneConfig{
			DisablePeriod:   opt.DisablePeriod,
			DisableClassify: opt.DisableClassify,
			FixedPeriod:     opt.FixedPeriod,
		}
		if opt.Context != nil {
			interrupt = opt.Context.Err
		}
	}
	res, err := estimate.Estimate(ids, abs, estimate.Config{Tune: tc, Interrupt: interrupt})
	if err != nil {
		return Pipeline{}, nil, err
	}
	return Pipeline{p: res.Pipeline}, &EstimateReport{
		Ratio:      res.Ratio,
		Confidence: res.Confidence,
		Period:     res.Pipeline.Period,
		Notes:      res.Notes,
		Elapsed:    res.Elapsed,
	}, nil
}
