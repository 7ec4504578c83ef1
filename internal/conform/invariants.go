package conform

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"cliz/internal/codec"
	"cliz/internal/core"
	"cliz/internal/dataset"
	"cliz/internal/entropy"
	"cliz/internal/trace"

	// Differential oracles.
	_ "cliz/internal/qoz"
	_ "cliz/internal/sz3"
)

// Invariant names, in check order. DESIGN.md documents the exact contract
// behind each; keep the two lists in sync.
const (
	InvCompress    = "compress"    // compression succeeds or rejects with a clear, named error
	InvRatio       = "ratio"       // blob non-empty, ratio finite, size within sanity ceiling
	InvTrace       = "trace"       // traced total stage accounts for exactly the blob length
	InvVerify      = "verify"      // Verify reports every section clean on a fresh blob
	InvDecode      = "decode"      // the blob decodes, with the original dims
	InvBound       = "bound"       // |recon − orig| ≤ eb at every valid finite point
	InvFill        = "fill"        // masked points reproduce the fill value bit-exactly
	InvNonFinite   = "nonfinite"   // NaN stays NaN, ±Inf stays exactly ±Inf at valid points
	InvDeterminism = "determinism" // two decodes of one blob are bit-identical
	InvWorkers     = "workers"     // decode output independent of the worker count
	InvBoundCheck  = "bound-check" // decode-time bound self-verification passes on honest blobs
	InvDiffBound   = "diff-bound"  // SZ3/QoZ honor the same bound on the same input
	InvDiffRatio   = "diff-ratio"  // CliZ's ratio is within a sane factor of SZ3's
	InvFusedBlob   = "fused-blob"  // fused and materialized-permute pipelines emit identical blobs (Workers=1)
	InvStream      = "stream"      // temporal stream round-trips per-frame in bound, Seek is bit-identical, corruption is clean and attributed
)

// Failure is one invariant violation.
type Failure struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (f Failure) String() string { return f.Invariant + ": " + f.Detail }

// Verdict is the outcome of running one case through the invariant suite.
type Verdict struct {
	// Outcome is "pass", "rejected" (clean, expected compress-time
	// rejection — e.g. a relative bound on a constant field) or "fail".
	Outcome string `json:"outcome"`
	// RejectReason carries the clean rejection's error text.
	RejectReason string `json:"rejectReason,omitempty"`
	// Failures lists every violated invariant.
	Failures []Failure `json:"failures,omitempty"`
	// Ratio is the achieved compression ratio (0 when rejected).
	Ratio float64 `json:"ratio,omitempty"`
	// Points is the case volume.
	Points int `json:"points"`
}

// Failed reports whether any invariant was violated.
func (v *Verdict) Failed() bool { return len(v.Failures) > 0 }

// FailedInvariant reports whether the named invariant is among the failures.
func (v *Verdict) FailedInvariant(name string) bool {
	for _, f := range v.Failures {
		if f.Invariant == name {
			return true
		}
	}
	return false
}

func (v *Verdict) addf(inv, format string, args ...any) {
	v.Failures = append(v.Failures, Failure{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// Hook injects faults for the harness's own self-tests (mutation checks):
// CorruptRecon, when non-nil, is applied to every decode output before the
// invariants see it, simulating a decoder bug. It must be deterministic.
type Hook struct {
	CorruptRecon func(c *Case, recon []float32)
}

// RunOptions configure one invariant-suite run.
type RunOptions struct {
	// Baselines enables the differential oracles (SZ3/QoZ on the same
	// input). They roughly triple a case's cost.
	Baselines bool
	// Hook is the fault-injection hook for self-tests.
	Hook Hook
}

// cleanRejection reports whether a compress-time error is an acceptable,
// self-explanatory rejection of a degenerate input rather than a bug.
func cleanRejection(err error) bool {
	msg := err.Error()
	for _, want := range []string{"non-finite", "zero value range", "rel/abs"} {
		if strings.Contains(msg, want) {
			return true
		}
	}
	return false
}

// RunCase materializes the case, compresses it, and checks every invariant.
func RunCase(c Case, opt RunOptions) *Verdict {
	v := &Verdict{Outcome: "pass", Points: c.Points()}

	ds, pipe, err := c.Materialize()
	if err != nil {
		v.Outcome = "fail"
		v.addf(InvCompress, "materialize: %v", err)
		return v
	}
	eb, err := c.resolveBound(ds)
	if err != nil {
		// Mirrors the public API's clean bound rejection.
		v.Outcome = "rejected"
		v.RejectReason = err.Error()
		return v
	}

	blob, stages, err := compressCase(c, ds, eb, pipe)
	if err != nil {
		if cleanRejection(err) {
			v.Outcome = "rejected"
			v.RejectReason = err.Error()
			return v
		}
		v.Outcome = "fail"
		v.addf(InvCompress, "%v", err)
		return v
	}

	checkRatio(v, c, blob)
	checkTrace(v, c, blob, stages)
	checkVerify(v, blob)
	checkFusedBlob(v, c, ds, eb, pipe)
	recon := checkDecode(v, c, ds, blob, opt.Hook)
	if recon != nil {
		checkPointwise(v, ds, recon, eb, pipe.UseMask)
		checkDeterminism(v, c, blob, recon, opt.Hook)
	}
	if opt.Baselines {
		checkDifferential(v, c, ds, eb, blob)
	}
	if c.Stream != nil {
		checkStream(v, &c)
	}

	if v.Failed() {
		v.Outcome = "fail"
	}
	return v
}

// entropyKind maps the case's entropy spec to the core option.
func entropyKind(spec string) (entropy.Kind, error) {
	switch spec {
	case "", "huffman":
		return entropy.Huffman, nil
	case "rans":
		return entropy.RANS, nil
	case "rans-interleaved":
		return entropy.RANSInterleaved, nil
	}
	return 0, fmt.Errorf("conform: unknown entropy kind %q", spec)
}

func compressCase(c Case, ds *dataset.Dataset, eb float64, pipe core.Pipeline) ([]byte, []trace.Stage, error) {
	var rec trace.Recorder
	opts := core.Options{Workers: c.Opts.Workers, Trace: &rec}
	kind, err := entropyKind(c.Opts.Entropy)
	if err != nil {
		return nil, nil, err
	}
	opts.Entropy = kind
	var blob []byte
	if c.Opts.Chunks > 0 {
		blob, err = core.CompressChunked(ds, eb, pipe, opts, c.Opts.Chunks, chunkWorkers(c))
	} else {
		blob, err = core.Compress(ds, eb, pipe, opts)
	}
	if err != nil {
		return nil, nil, err
	}
	return blob, rec.Stages(), nil
}

// checkFusedBlob: with Workers=1 (the deterministic single-goroutine
// shape) the fused-index pipeline and the forced materialized-permute
// pipeline must emit byte-identical blobs — the fused traversal is pure
// index arithmetic and must never change a single output bit. Chunked
// cases compare the whole CLZP container, which covers every chunk.
func checkFusedBlob(v *Verdict, c Case, ds *dataset.Dataset, eb float64, pipe core.Pipeline) {
	kind, err := entropyKind(c.Opts.Entropy)
	if err != nil {
		return // compressCase already reported it
	}
	fused := core.Options{Entropy: kind, Workers: 1}
	legacy := fused
	legacy.MaterializedPermute = true
	var fb, lb []byte
	var ferr, lerr error
	if c.Opts.Chunks > 0 {
		fb, ferr = core.CompressChunked(ds, eb, pipe, fused, c.Opts.Chunks, 1)
		lb, lerr = core.CompressChunked(ds, eb, pipe, legacy, c.Opts.Chunks, 1)
	} else {
		fb, ferr = core.Compress(ds, eb, pipe, fused)
		lb, lerr = core.Compress(ds, eb, pipe, legacy)
	}
	if (ferr == nil) != (lerr == nil) {
		v.addf(InvFusedBlob, "fused err=%v, materialized err=%v", ferr, lerr)
		return
	}
	if ferr != nil {
		return // both rejected identically; the compress invariant owns that
	}
	if !bytes.Equal(fb, lb) {
		n := len(fb)
		if len(lb) < n {
			n = len(lb)
		}
		at := n
		for i := 0; i < n; i++ {
			if fb[i] != lb[i] {
				at = i
				break
			}
		}
		v.addf(InvFusedBlob, "blobs differ at byte %d (fused %d bytes, materialized %d)", at, len(fb), len(lb))
	}
}

func chunkWorkers(c Case) int {
	if c.Opts.ChunkWorkers > 0 {
		return c.Opts.ChunkWorkers
	}
	return 2
}

func decodeOpts(c Case, workers int) core.DecompressOptions {
	return core.DecompressOptions{Workers: workers, BoundCheckEvery: c.Opts.BoundCheck}
}

// decodeCase decodes through the single core entry point: workers bounds
// intra-blob parallelism for a unit blob and chunk concurrency for a
// chunked container.
func decodeCase(c Case, blob []byte, workers int) ([]float32, []int, error) {
	return core.Decompress(blob, decodeOpts(c, workers))
}

// checkRatio: the blob is non-empty, the ratio is finite and positive, and
// the blob never exceeds a generous ceiling (4× the raw data plus fixed
// framing slack) — an incompressible field costs about 1×, so 4× only trips
// on pathological expansion bugs.
func checkRatio(v *Verdict, c Case, blob []byte) {
	if len(blob) == 0 {
		v.addf(InvRatio, "empty blob")
		return
	}
	raw := c.Points() * 4
	v.Ratio = float64(raw) / float64(len(blob))
	if !finite(v.Ratio) || v.Ratio <= 0 {
		v.addf(InvRatio, "non-finite ratio %g", v.Ratio)
	}
	if ceiling := 4*raw + 65536; len(blob) > ceiling {
		v.addf(InvRatio, "blob %d bytes exceeds sanity ceiling %d (raw %d)", len(blob), ceiling, raw)
	}
}

// checkTrace: the byte-accounting contract — the traced run's root stage
// records exactly the blob length as its output bytes, and no
// section-producing stage alone exceeds the blob length.
func checkTrace(v *Verdict, c Case, blob []byte, stages []trace.Stage) {
	rootName := "total"
	if c.Opts.Chunks > 0 {
		rootName = "chunked-total"
	}
	var root *trace.Stage
	for i := range stages {
		if stages[i].Name == rootName {
			root = &stages[i]
			break
		}
	}
	if root == nil {
		v.addf(InvTrace, "no %q stage in %d trace records", rootName, len(stages))
		return
	}
	if root.OutBytes != int64(len(blob)) {
		v.addf(InvTrace, "%s.OutBytes = %d, blob = %d bytes", rootName, root.OutBytes, len(blob))
	}
}

func checkVerify(v *Verdict, blob []byte) {
	rep := core.Verify(blob)
	if !rep.OK() {
		v.addf(InvVerify, "fresh blob verifies damaged: %v", rep.Damaged())
	}
}

func checkDecode(v *Verdict, c Case, ds *dataset.Dataset, blob []byte, hook Hook) []float32 {
	recon, dims, err := decodeCase(c, blob, c.Opts.Workers)
	if err != nil {
		v.addf(InvDecode, "%v", err)
		return nil
	}
	if !equalDims(dims, ds.Dims) {
		v.addf(InvDecode, "dims %v, want %v", dims, ds.Dims)
		return nil
	}
	if len(recon) != len(ds.Data) {
		v.addf(InvDecode, "recon %d points, want %d", len(recon), len(ds.Data))
		return nil
	}
	if hook.CorruptRecon != nil {
		hook.CorruptRecon(&c, recon)
	}
	return recon
}

// checkPointwise: error bound at valid finite points, fill handling at
// masked points, exact NaN/Inf preservation at valid points. With
// mask-aware prediction (useMask) masked points must reproduce the fill
// value bit-exactly; without it the fill sentinels are ordinary data and
// only owe the error bound like every other point.
func checkPointwise(v *Verdict, ds *dataset.Dataset, recon []float32, eb float64, useMask bool) {
	valid := ds.Validity()
	tol := eb * (1 + 1e-9)
	var worst float64
	worstIdx := -1
	for i, want := range ds.Data {
		got := recon[i]
		if useMask && valid != nil && !valid[i] {
			if math.Float32bits(got) != math.Float32bits(ds.FillValue) {
				v.addf(InvFill, "masked point %d = %g (bits %#x), want fill %g",
					i, got, math.Float32bits(got), ds.FillValue)
				return
			}
			continue
		}
		switch {
		case math.IsNaN(float64(want)):
			if !math.IsNaN(float64(got)) {
				v.addf(InvNonFinite, "NaN at %d decoded to %g", i, got)
				return
			}
		case math.IsInf(float64(want), 0):
			if got != want {
				v.addf(InvNonFinite, "%g at %d decoded to %g", want, i, got)
				return
			}
		default:
			if d := math.Abs(float64(got) - float64(want)); d > tol {
				if d > worst {
					worst, worstIdx = d, i
				}
			}
		}
	}
	if worstIdx >= 0 {
		v.addf(InvBound, "point %d: |%g − %g| = %g > eb %g",
			worstIdx, recon[worstIdx], ds.Data[worstIdx], worst, eb)
	}
}

// checkDeterminism: a second decode must be bit-identical, and a decode with
// a different worker count must be bit-identical too.
func checkDeterminism(v *Verdict, c Case, blob []byte, first []float32, hook Hook) {
	again, _, err := decodeCase(c, blob, c.Opts.Workers)
	if err != nil {
		v.addf(InvDeterminism, "second decode failed: %v", err)
		return
	}
	if hook.CorruptRecon != nil {
		hook.CorruptRecon(&c, again)
	}
	if i := firstBitDiff(first, again); i >= 0 {
		v.addf(InvDeterminism, "decode #2 differs at point %d: %g vs %g", i, first[i], again[i])
	}

	otherWorkers := 3
	if c.Opts.Workers >= 2 {
		otherWorkers = 1
	}
	other, _, err := decodeCase(c, blob, otherWorkers)
	if err != nil {
		v.addf(InvWorkers, "decode with workers=%d failed: %v", otherWorkers, err)
		return
	}
	if hook.CorruptRecon != nil {
		hook.CorruptRecon(&c, other)
	}
	if i := firstBitDiff(first, other); i >= 0 {
		v.addf(InvWorkers, "workers=%d decode differs at point %d: %g vs %g",
			otherWorkers, i, first[i], other[i])
	}

	if c.Opts.BoundCheck == 0 {
		// The case didn't opt in; still exercise the self-check path once —
		// it must pass on an honest blob.
		opt := decodeOpts(c, c.Opts.Workers)
		opt.BoundCheckEvery = 7
		if _, _, err := core.Decompress(blob, opt); err != nil {
			v.addf(InvBoundCheck, "bound self-check rejected an honest blob: %v", err)
		}
	}
}

// checkDifferential runs the SZ3 and QoZ reference adapters on the same
// input and bound: both must round-trip within the bound (or reject
// non-finite input cleanly), and CliZ's ratio must not be absurdly worse
// than SZ3's on non-trivial finite fields.
func checkDifferential(v *Verdict, c Case, ds *dataset.Dataset, eb float64, blob []byte) {
	hasNonFinite := c.Data.NaNs+c.Data.PosInfs+c.Data.NegInfs > 0
	var szRatio float64
	for _, name := range []string{"SZ3", "QoZ"} {
		comp, err := codec.Get(name)
		if err != nil {
			v.addf(InvDiffBound, "%s unavailable: %v", name, err)
			continue
		}
		bblob, err := comp.Compress(ds, eb)
		if err != nil {
			if hasNonFinite && cleanRejection(err) {
				continue
			}
			v.addf(InvDiffBound, "%s compress: %v", name, err)
			continue
		}
		recon, dims, err := comp.Decompress(bblob)
		if err != nil {
			v.addf(InvDiffBound, "%s decompress: %v", name, err)
			continue
		}
		if !equalDims(dims, ds.Dims) {
			v.addf(InvDiffBound, "%s dims %v, want %v", name, dims, ds.Dims)
			continue
		}
		// Baselines are mask-oblivious: every point, including fill
		// sentinels, is data to them and must obey the bound.
		tol := eb * (1 + 1e-9)
		for i, want := range ds.Data {
			got := recon[i]
			if math.IsNaN(float64(want)) {
				if !math.IsNaN(float64(got)) {
					v.addf(InvDiffBound, "%s: NaN at %d decoded to %g", name, i, got)
					break
				}
				continue
			}
			if math.IsInf(float64(want), 0) {
				if got != want {
					v.addf(InvDiffBound, "%s: %g at %d decoded to %g", name, want, i, got)
					break
				}
				continue
			}
			if d := math.Abs(float64(got) - float64(want)); d > tol {
				v.addf(InvDiffBound, "%s: point %d |%g − %g| = %g > eb %g", name, i, got, want, d, eb)
				break
			}
		}
		if name == "SZ3" {
			szRatio = float64(c.Points()*4) / float64(len(bblob))
		}
	}
	// Ratio plausibility: only meaningful for the auto-selected pipeline on
	// non-trivial finite fields where fixed per-blob overhead doesn't
	// dominate. Adversarial hand-built pipelines (say, full fusion over a
	// reversed permutation) can legitimately compress an order of magnitude
	// worse than SZ3 — that is a bad configuration, not a bug.
	if szRatio > 0 && c.Pipe.Default && !hasNonFinite && !c.Data.Constant && c.Points() >= 4096 {
		clizRatio := float64(c.Points()*4) / float64(len(blob))
		if clizRatio < szRatio/10 {
			v.addf(InvDiffRatio, "CliZ ratio %.3g vs SZ3 %.3g (>10× worse)", clizRatio, szRatio)
		}
	}
}

func equalDims(a, b []int) bool {
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

// firstBitDiff returns the first index where the float bit patterns differ
// (−1 when identical).
func firstBitDiff(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
