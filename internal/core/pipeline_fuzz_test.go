package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cliz/internal/dataset"
	"cliz/internal/entropy"
	"cliz/internal/grid"
	"cliz/internal/mask"
	"cliz/internal/predict"
	"cliz/internal/stats"
)

// TestQuickRandomPipelines round-trips random datasets through random valid
// pipelines (permutation × fusion × fitting × classify × period × alpha ×
// entropy coder) and asserts the error bound plus dims fidelity — the
// broadest single property the compressor must satisfy.
func TestQuickRandomPipelines(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rank := rng.Intn(3) + 1
		dims := make([]int, rank)
		vol := 1
		for i := range dims {
			dims[i] = rng.Intn(14) + 2
			vol *= dims[i]
		}
		data := make([]float32, vol)
		base := rng.NormFloat64() * 100
		for i := range data {
			data[i] = float32(base + 10*math.Sin(float64(i)/7) + rng.NormFloat64())
		}
		ds := &dataset.Dataset{Name: "fuzz", Data: data, Dims: dims}
		// Random mask on rank ≥ 2.
		if rank >= 2 && rng.Intn(2) == 0 {
			nLat, nLon := dims[rank-2], dims[rank-1]
			regions := make([]int32, nLat*nLon)
			for i := range regions {
				if rng.Float64() > 0.3 {
					regions[i] = 1
				}
			}
			ds.Mask = mask.New(nLat, nLon, regions)
			ds.FillValue = 9.96921e36
			valid := ds.Validity()
			for i, ok := range valid {
				if !ok {
					ds.Data[i] = ds.FillValue
				}
			}
		}
		// A masked periodic dataset needs rank ≥ 3 (the mask must not span
		// the time axis); dataset.Validate rejects the combination.
		if rank >= 2 && rng.Intn(2) == 0 && (ds.Mask == nil || rank >= 3) {
			ds.Lead = dataset.LeadTime
			ds.Periodic = true
		}
		perms := grid.Permutations(rank)
		fusions := grid.Compositions(rank)
		fits := []predict.Fitting{predict.Linear, predict.Cubic, predict.Lorenzo}
		p := Pipeline{
			Perm:     perms[rng.Intn(len(perms))],
			Fusion:   fusions[rng.Intn(len(fusions))],
			Fitting:  fits[rng.Intn(len(fits))],
			Classify: rng.Intn(2) == 0,
			UseMask:  ds.Mask != nil && rng.Intn(4) != 0,
		}
		if ds.Periodic && rng.Intn(2) == 0 {
			p.Period = rng.Intn(5) + 2
		}
		if rng.Intn(2) == 0 {
			p.LevelAlpha = 1 + rng.Float64()
		}
		eb := math.Pow(10, -rng.Float64()*3)
		opt := Options{Entropy: entropy.Kind(rng.Intn(2))}
		blob, err := Compress(ds, eb, p, opt)
		if err != nil {
			return false
		}
		got, gdims, err := Decompress(blob, DecompressOptions{})
		if err != nil {
			return false
		}
		if !dimsEqual(gdims, dims) {
			return false
		}
		var valid []bool
		if p.UseMask {
			valid = ds.Validity()
		}
		return stats.MaxAbsErr(ds.Data, got, valid) <= eb*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
