package baselines_test

import (
	"math"
	"strings"
	"testing"

	"cliz"
	"cliz/baselines"
)

func smallField() *cliz.Dataset {
	n := 32 * 48
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 17))
	}
	return &cliz.Dataset{Name: "b", Data: data, Dims: []int{32, 48}}
}

func TestAllBaselinesRoundTrip(t *testing.T) {
	ds := smallField()
	for _, name := range baselines.Names() {
		blob, err := baselines.Compress(name, ds, cliz.Abs(0.01))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		recon, dims, err := baselines.Decompress(name, blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(dims) != 2 || dims[0] != 32 || dims[1] != 48 {
			t.Fatalf("%s: dims %v", name, dims)
		}
		if got := cliz.MaxAbsErr(ds.Data, recon, nil); got > 0.01 {
			t.Fatalf("%s: bound violated: %g", name, got)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	ds := smallField()
	if _, err := baselines.Compress("NOPE", ds, cliz.Abs(0.1)); err == nil {
		t.Fatal("unknown codec accepted")
	}
	if _, err := baselines.Compress("SZ3", ds, cliz.ErrorBound{}); err == nil {
		t.Fatal("empty bound accepted")
	}
	if _, err := baselines.Compress("SZ3", ds, cliz.ErrorBound{Rel: 1, Abs: 1}); err == nil {
		t.Fatal("double bound accepted")
	}
	if _, _, err := baselines.Decompress("SZ3", []byte("junk")); err == nil {
		t.Fatal("junk blob accepted")
	}
	bad := smallField()
	bad.Dims = []int{7}
	if _, err := baselines.Compress("SZ3", bad, cliz.Abs(0.1)); err == nil {
		t.Fatal("inconsistent dataset accepted")
	}
}

func TestMaskedDatasetThroughBaselines(t *testing.T) {
	ds := smallField()
	regions := make([]int32, 32*48)
	for i := range regions {
		if i%4 != 0 {
			regions[i] = 1
		}
	}
	ds.MaskRegions = regions
	ds.FillValue = 9.96921e36
	for i := range ds.Data {
		if regions[i] == 0 {
			ds.Data[i] = ds.FillValue
		}
	}
	// CliZ honours the mask; general-purpose baselines must still bound
	// every point (fills become exact literals / outliers).
	for _, name := range []string{"CliZ", "SZ3", "SPERR"} {
		blob, err := baselines.Compress(name, ds, cliz.Rel(1e-2))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, err := baselines.Decompress(name, blob); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestNonFiniteRoundTripOrError pins the non-finite contract across every
// registered compressor: a NaN or Inf at a valid grid point must either
// survive the round trip (NaN stays NaN, Inf stays exactly Inf, finite
// neighbours stay within the bound) or be rejected with a clear error at
// compress time. Silently zeroing or perturbing such points is a bound
// violation with no signal — the failure mode this test exists to catch.
func TestNonFiniteRoundTripOrError(t *testing.T) {
	const eb = 0.01
	nanIdx, posIdx, negIdx := 100, 200, 300
	for _, name := range baselines.Names() {
		t.Run(name, func(t *testing.T) {
			ds := smallField()
			ds.Data[nanIdx] = float32(math.NaN())
			ds.Data[posIdx] = float32(math.Inf(1))
			ds.Data[negIdx] = float32(math.Inf(-1))
			blob, err := baselines.Compress(name, ds, cliz.Abs(eb))
			if err != nil {
				// A clean rejection is an acceptable contract — but it must
				// name the problem, not fail somewhere random.
				if !strings.Contains(err.Error(), "non-finite") {
					t.Fatalf("rejection does not explain the non-finite input: %v", err)
				}
				return
			}
			recon, _, err := baselines.Decompress(name, blob)
			if err != nil {
				t.Fatalf("compressed non-finite data but failed to decompress: %v", err)
			}
			for i, want := range ds.Data {
				got := recon[i]
				switch {
				case math.IsNaN(float64(want)):
					if !math.IsNaN(float64(got)) {
						t.Fatalf("NaN at %d decoded to %g", i, got)
					}
				case math.IsInf(float64(want), 0):
					if got != want {
						t.Fatalf("Inf at %d decoded to %g", i, got)
					}
				default:
					if diff := math.Abs(float64(got) - float64(want)); !(diff <= eb) {
						t.Fatalf("finite point %d: |%g-%g| = %g > %g", i, got, want, diff, eb)
					}
				}
			}
		})
	}
}

// TestBoundsResolvedLikeCliZ runs every compressor through the bound
// resolver the cliz API uses: a non-finite absolute bound and a relative
// bound on a constant field have no meaning, so each must be refused
// instead of producing an undecodable blob, NaNs or an unbounded error.
func TestBoundsResolvedLikeCliZ(t *testing.T) {
	constant := smallField()
	for i := range constant.Data {
		constant.Data[i] = 2.5
	}
	cases := []struct {
		name string
		ds   *cliz.Dataset
		eb   cliz.ErrorBound
	}{
		{"abs-inf", smallField(), cliz.Abs(math.Inf(1))},
		{"abs-nan", smallField(), cliz.Abs(math.NaN())},
		{"rel-constant", constant, cliz.Rel(1e-2)},
	}
	for _, name := range baselines.Names() {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				if _, err := baselines.Compress(name, tc.ds, tc.eb); err == nil {
					t.Fatalf("%s accepted %+v", name, tc.eb)
				}
				if _, _, err := cliz.Compress(tc.ds, tc.eb, nil); err == nil {
					t.Fatalf("cliz accepted %+v", tc.eb)
				}
			})
		}
	}
}
