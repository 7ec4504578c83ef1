package cliz_test

import (
	"math"
	"math/rand"
	"testing"

	"cliz"
	"cliz/baselines"
)

// makeTestDataset builds a small masked, periodic field through the public
// API only.
func makeTestDataset() *cliz.Dataset {
	rng := rand.New(rand.NewSource(42))
	nT, nLat, nLon := 48, 24, 32
	const fill = 9.96921e36
	regions := make([]int32, nLat*nLon)
	for i := range regions {
		if (i/nLon+i%nLon)%5 != 0 {
			regions[i] = 1
		}
	}
	data := make([]float32, nT*nLat*nLon)
	plane := nLat * nLon
	for t := 0; t < nT; t++ {
		season := 2 * math.Pi * float64(t) / 12
		for p := 0; p < plane; p++ {
			idx := t*plane + p
			if regions[p] == 0 {
				data[idx] = fill
				continue
			}
			data[idx] = float32(20*math.Sin(season+float64(p)/40) +
				5*math.Cos(float64(p)/17) + 0.1*rng.NormFloat64())
		}
	}
	return &cliz.Dataset{
		Name: "api-test", Data: data, Dims: []int{nT, nLat, nLon},
		Lead: cliz.LeadTime, Periodic: true,
		MaskRegions: regions, FillValue: fill,
	}
}

func TestPublicRoundTrip(t *testing.T) {
	ds := makeTestDataset()
	blob, info, err := cliz.Compress(ds, cliz.Rel(1e-2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Ratio <= 1 {
		t.Fatalf("ratio %v", info.Ratio)
	}
	recon, dims, err := cliz.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 3 || dims[0] != ds.Dims[0] {
		t.Fatalf("dims %v", dims)
	}
	valid, err := cliz.ValidityOf(ds)
	if err != nil {
		t.Fatal(err)
	}
	// Relative bound of 1e-2 over the valid range.
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range ds.Data {
		if !valid[i] {
			continue
		}
		lo = math.Min(lo, float64(v))
		hi = math.Max(hi, float64(v))
	}
	eb := 0.01 * (hi - lo)
	if got := cliz.MaxAbsErr(ds.Data, recon, valid); got > eb*(1+1e-9) {
		t.Fatalf("bound violated: %g > %g", got, eb)
	}
}

func TestAutoTuneAndReuse(t *testing.T) {
	ds := makeTestDataset()
	pipe, report, err := cliz.AutoTune(ds, cliz.Rel(1e-2), &cliz.TuneOptions{SamplingRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if report.Period != 12 {
		t.Fatalf("period %d", report.Period)
	}
	if report.PipelinesTested < 96 {
		t.Fatalf("only %d pipelines tested", report.PipelinesTested)
	}
	// The tuned pipeline must compress another field of the same model.
	other := makeTestDataset()
	other.Name = "api-test-2"
	for i := range other.Data {
		if other.MaskRegions[(i)%(24*32)] != 0 && other.Data[i] < 1e30 {
			other.Data[i] += 1
		}
	}
	blob, info, err := cliz.Compress(other, cliz.Rel(1e-2), &pipe)
	if err != nil {
		t.Fatal(err)
	}
	if info.Pipeline != pipe.String() {
		t.Fatalf("info pipeline %q != %q", info.Pipeline, pipe.String())
	}
	if _, _, err := cliz.Decompress(blob); err != nil {
		t.Fatal(err)
	}
}

func TestAbsVsRelBounds(t *testing.T) {
	ds := makeTestDataset()
	if _, _, err := cliz.Compress(ds, cliz.ErrorBound{}, nil); err == nil {
		t.Fatal("empty bound accepted")
	}
	if _, _, err := cliz.Compress(ds, cliz.ErrorBound{Rel: 0.1, Abs: 0.1}, nil); err == nil {
		t.Fatal("double bound accepted")
	}
	blob, _, err := cliz.Compress(ds, cliz.Abs(0.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := cliz.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	valid, _ := cliz.ValidityOf(ds)
	if got := cliz.MaxAbsErr(ds.Data, recon, valid); got > 0.5*(1+1e-9) {
		t.Fatalf("abs bound violated: %g", got)
	}
}

func TestDatasetValidation(t *testing.T) {
	if _, _, err := cliz.Compress(nil, cliz.Rel(0.1), nil); err == nil {
		t.Fatal("nil dataset accepted")
	}
	bad := &cliz.Dataset{Name: "bad", Data: make([]float32, 10), Dims: []int{3, 3}}
	if _, _, err := cliz.Compress(bad, cliz.Rel(0.1), nil); err == nil {
		t.Fatal("inconsistent dims accepted")
	}
	badMask := makeTestDataset()
	badMask.MaskRegions = badMask.MaskRegions[:5]
	if _, _, err := cliz.Compress(badMask, cliz.Rel(0.1), nil); err == nil {
		t.Fatal("short mask accepted")
	}
}

func TestDecompressGarbage(t *testing.T) {
	if _, _, err := cliz.Decompress([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, _, err := cliz.Decompress(nil); err == nil {
		t.Fatal("nil accepted")
	}
}

func TestBaselinesPackage(t *testing.T) {
	names := baselines.Names()
	want := map[string]bool{"CliZ": true, "SZ3": true, "QoZ": true, "ZFP": true, "SPERR": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("missing codecs: %v (have %v)", want, names)
	}
	ds := makeTestDataset()
	for _, n := range names {
		blob, err := baselines.Compress(n, ds, cliz.Rel(1e-2))
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		recon, dims, err := baselines.Decompress(n, blob)
		if err != nil {
			t.Fatalf("%s decode: %v", n, err)
		}
		if len(recon) != len(ds.Data) || len(dims) != 3 {
			t.Fatalf("%s: shape mismatch", n)
		}
	}
	if _, err := baselines.Compress("NOPE", ds, cliz.Rel(0.1)); err == nil {
		t.Fatal("unknown codec accepted")
	}
	if _, err := baselines.Compress("SZ3", ds, cliz.ErrorBound{}); err == nil {
		t.Fatal("empty bound accepted")
	}
}

func TestMetricsHelpers(t *testing.T) {
	a := []float32{1, 2, 3, 4}
	if got := cliz.PSNR(a, a, nil); !math.IsInf(got, 1) {
		t.Fatalf("self PSNR %v", got)
	}
	if got := cliz.MaxAbsErr(a, []float32{1, 2, 3, 5}, nil); got != 1 {
		t.Fatalf("MaxAbsErr %v", got)
	}
	if got := cliz.SSIM(a, a, []int{2, 2}, 2, nil); math.Abs(got-1) > 1e-9 {
		t.Fatalf("SSIM %v", got)
	}
}

func TestDefaultPipeline(t *testing.T) {
	ds := makeTestDataset()
	pipe, err := cliz.DefaultPipeline(ds)
	if err != nil {
		t.Fatal(err)
	}
	if pipe.String() == "" {
		t.Fatal("empty pipeline string")
	}
	if _, _, err := cliz.Compress(ds, cliz.Rel(1e-2), &pipe); err != nil {
		t.Fatal(err)
	}
}

func TestPublicChunkedCompression(t *testing.T) {
	ds := makeTestDataset()
	pipe, _, err := cliz.AutoTune(ds, cliz.Rel(1e-2), &cliz.TuneOptions{SamplingRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	blob, info, err := cliz.CompressChunked(ds, cliz.Rel(1e-2), &pipe, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Ratio <= 1 || info.CompressedBytes != len(blob) {
		t.Fatalf("info %+v", info)
	}
	// The regular Decompress must recognise the container.
	recon, dims, err := cliz.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if dims[0] != ds.Dims[0] || len(recon) != len(ds.Data) {
		t.Fatalf("shape %v / %d", dims, len(recon))
	}
	valid, _ := cliz.ValidityOf(ds)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range ds.Data {
		if !valid[i] {
			continue
		}
		lo = math.Min(lo, float64(v))
		hi = math.Max(hi, float64(v))
	}
	if got := cliz.MaxAbsErr(ds.Data, recon, valid); got > 0.01*(hi-lo)*(1+1e-9) {
		t.Fatalf("chunked bound violated: %g", got)
	}
	// Default pipeline + bad inputs.
	if _, _, err := cliz.CompressChunked(ds, cliz.Rel(1e-2), nil, 2, 1); err != nil {
		t.Fatalf("nil pipeline: %v", err)
	}
	if _, _, err := cliz.CompressChunked(nil, cliz.Rel(1e-2), nil, 2, 1); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, _, err := cliz.CompressChunked(ds, cliz.ErrorBound{}, nil, 2, 1); err == nil {
		t.Fatal("empty bound accepted")
	}
}

func TestPublicAssess(t *testing.T) {
	ds := makeTestDataset()
	blob, _, err := cliz.Compress(ds, cliz.Rel(1e-2), nil)
	if err != nil {
		t.Fatal(err)
	}
	recon, dims, err := cliz.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	valid, _ := cliz.ValidityOf(ds)
	r := cliz.Assess(ds.Data, recon, dims, valid)
	if r.Points == 0 || r.PSNR < 20 || r.SSIM < 0.8 {
		t.Fatalf("report %+v", r)
	}
	if r.String() == "" {
		t.Fatal("empty report rendering")
	}
}

func TestAutoTuneInvalidInputs(t *testing.T) {
	if _, _, err := cliz.AutoTune(nil, cliz.Rel(0.1), nil); err == nil {
		t.Fatal("nil dataset accepted")
	}
	ds := makeTestDataset()
	if _, _, err := cliz.AutoTune(ds, cliz.ErrorBound{}, nil); err == nil {
		t.Fatal("empty bound accepted")
	}
	bad := makeTestDataset()
	bad.Dims = []int{1}
	if _, _, err := cliz.AutoTune(bad, cliz.Rel(0.1), nil); err == nil {
		t.Fatal("inconsistent dataset accepted")
	}
	if _, err := cliz.DefaultPipeline(nil); err == nil {
		t.Fatal("nil dataset pipeline accepted")
	}
}

// TestErrorBoundEdgeCases drives the public API through degenerate inputs:
// every case must either satisfy the error bound at all valid points or
// return a clean error — never panic, and never hand back a silently
// bound-violating reconstruction.
func TestErrorBoundEdgeCases(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	seq := func(n int) []float32 {
		d := make([]float32, n)
		for i := range d {
			d[i] = float32(i%7) + 0.5
		}
		return d
	}
	cases := []struct {
		name    string
		ds      *cliz.Dataset
		eb      cliz.ErrorBound
		wantErr bool
	}{
		{
			// Rel on a constant field: the value range is zero, so "1% of
			// the range" has no meaning. This used to silently substitute a
			// range of 1; it is now a clean error directing callers to Abs.
			name:    "rel-constant-field",
			ds:      &cliz.Dataset{Name: "const", Data: make([]float32, 256), Dims: []int{16, 16}},
			eb:      cliz.Rel(1e-2),
			wantErr: true,
		},
		{
			// Rel when every point is masked out: the valid range is empty —
			// same zero-range error as the constant field.
			name: "rel-all-masked",
			ds: &cliz.Dataset{Name: "masked", Data: []float32{9e35, 9e35, 9e35, 9e35},
				Dims: []int{2, 2}, MaskRegions: []int32{0, 0, 0, 0}, FillValue: 9e35},
			eb:      cliz.Rel(1e-2),
			wantErr: true,
		},
		{name: "abs-zero", ds: &cliz.Dataset{Name: "z", Data: seq(16), Dims: []int{4, 4}}, eb: cliz.Abs(0), wantErr: true},
		{name: "abs-negative", ds: &cliz.Dataset{Name: "neg", Data: seq(16), Dims: []int{4, 4}}, eb: cliz.Abs(-1), wantErr: true},
		{name: "abs-inf", ds: &cliz.Dataset{Name: "ai", Data: seq(16), Dims: []int{4, 4}}, eb: cliz.Abs(math.Inf(1)), wantErr: true},
		{name: "both-set", ds: &cliz.Dataset{Name: "b", Data: seq(16), Dims: []int{4, 4}}, eb: cliz.ErrorBound{Rel: 1e-2, Abs: 0.1}, wantErr: true},
		{name: "neither-set", ds: &cliz.Dataset{Name: "n", Data: seq(16), Dims: []int{4, 4}}, eb: cliz.ErrorBound{}, wantErr: true},
		{
			// NaN at a valid point: preserved bit-exactly via the literal
			// path; finite neighbours stay within the absolute bound.
			name: "abs-nan-point",
			ds:   &cliz.Dataset{Name: "nan", Data: []float32{1, 2, nan, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, Dims: []int{4, 4}},
			eb:   cliz.Abs(0.1),
		},
		{
			name: "abs-inf-point",
			ds:   &cliz.Dataset{Name: "inf", Data: []float32{1, 2, inf, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, Dims: []int{4, 4}},
			eb:   cliz.Abs(0.1),
		},
		{
			// Rel with ±Inf at a valid point resolves to an infinite
			// absolute budget — that must be a clean error, not a silent
			// data-destroying success.
			name:    "rel-inf-point",
			ds:      &cliz.Dataset{Name: "relinf", Data: []float32{1, 2, inf, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, Dims: []int{4, 4}},
			eb:      cliz.Rel(1e-2),
			wantErr: true,
		},
		{name: "one-element", ds: &cliz.Dataset{Name: "one", Data: []float32{3.25}, Dims: []int{1}}, eb: cliz.Abs(0.1)},
		{name: "one-by-n", ds: &cliz.Dataset{Name: "row", Data: seq(5), Dims: []int{1, 5}}, eb: cliz.Abs(0.1)},
		{name: "n-by-one", ds: &cliz.Dataset{Name: "col", Data: seq(5), Dims: []int{5, 1}}, eb: cliz.Abs(0.1)},
		{name: "all-ones-4d", ds: &cliz.Dataset{Name: "pt", Data: seq(1), Dims: []int{1, 1, 1, 1}}, eb: cliz.Abs(0.1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blob, _, err := cliz.Compress(tc.ds, tc.eb, nil)
			if tc.wantErr {
				if err == nil {
					t.Fatal("expected a clean error, got success")
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			recon, dims, err := cliz.Decompress(blob)
			if err != nil {
				t.Fatalf("decompress: %v", err)
			}
			if len(dims) != len(tc.ds.Dims) || len(recon) != len(tc.ds.Data) {
				t.Fatalf("shape %v / %d points", dims, len(recon))
			}
			valid, _ := cliz.ValidityOf(tc.ds)
			// Bound the reconstruction error at every valid point. A
			// non-finite original must come back bit-identical; the error
			// budget only applies between finite values.
			eb := tc.eb.Abs
			if eb == 0 {
				eb = 1 // Rel on constant/empty range clamps the range to 1
			}
			for i, v := range tc.ds.Data {
				if valid != nil && !valid[i] {
					continue
				}
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					if math.Float32bits(recon[i]) != math.Float32bits(v) {
						t.Fatalf("point %d: non-finite %g not preserved (got %g)", i, v, recon[i])
					}
					continue
				}
				if d := math.Abs(float64(recon[i]) - float64(v)); d > eb*(1+1e-5) {
					t.Fatalf("point %d: |%g-%g| = %g > eb %g", i, recon[i], v, d, eb)
				}
			}
		})
	}
}

// TestPublicTrace exercises the WithTrace option end to end: stage records
// must land both in the Trace and in CompressInfo.Stages, aggregate sanely,
// and the traced decompressor must mirror them.
func TestPublicTrace(t *testing.T) {
	ds := makeTestDataset()
	var tr cliz.Trace
	blob, info, err := cliz.Compress(ds, cliz.Rel(1e-2), nil, cliz.WithTrace(&tr))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Stages) == 0 || len(tr.Stages()) != len(info.Stages) {
		t.Fatalf("CompressInfo carries %d stages, trace %d", len(info.Stages), len(tr.Stages()))
	}
	names := map[string]bool{}
	var total cliz.StageInfo
	for _, s := range tr.Aggregate() {
		names[s.Name] = true
		if s.Name == "total" {
			total = s
		}
	}
	for _, want := range []string{"predict", "entropy", "lossless", "total"} {
		if !names[want] {
			t.Fatalf("aggregate missing %q: %v", want, names)
		}
	}
	if total.OutBytes != int64(len(blob)) {
		t.Fatalf("total.OutBytes %d != blob %d", total.OutBytes, len(blob))
	}
	if tr.String() == "" {
		t.Fatal("empty table rendering")
	}
	tr.Reset()
	if len(tr.Stages()) != 0 {
		t.Fatal("Reset did not clear records")
	}
	if _, _, err := cliz.Decompress(blob, cliz.WithTrace(&tr)); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range tr.Aggregate() {
		if s.Name == "reconstruct" {
			found = true
		}
	}
	if !found {
		t.Fatalf("decode trace missing reconstruct stage:\n%s", tr.String())
	}
}
