package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"cliz/internal/datagen"
	"cliz/internal/dataset"
	"cliz/internal/entropy"
	"cliz/internal/grid"
	"cliz/internal/mask"
	"cliz/internal/predict"
)

// equivDataset builds a deterministic smooth-ish field over dims, optionally
// with a mask over the trailing two (or one) dimensions, so every
// permutation and fusion of the shape is exercised with both validity
// representations.
func equivDataset(dims []int, masked bool, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	vol := grid.Volume(dims)
	data := make([]float32, vol)
	for i := range data {
		data[i] = float32(i%17)*0.5 + float32(rng.NormFloat64())*0.1
	}
	ds := &dataset.Dataset{
		Name:      fmt.Sprintf("fused-equiv-%v", dims),
		Data:      data,
		Dims:      dims,
		FillValue: datagen.FillValue,
	}
	if masked {
		nLat, nLon := 1, dims[len(dims)-1]
		if len(dims) >= 2 {
			nLat = dims[len(dims)-2]
		}
		regions := make([]int32, nLat*nLon)
		for i := range regions {
			if i%4 == 0 {
				regions[i] = 0
			} else {
				regions[i] = 1
			}
		}
		m := mask.New(nLat, nLon, regions)
		ds.Mask = m
		valid := ds.Validity()
		for i, ok := range valid {
			if !ok {
				ds.Data[i] = datagen.FillValue
			}
		}
	}
	return ds
}

// checkFusedEquivalence runs one pipeline through the fused path and the
// forced-materialized path on both sides of the codec and requires
// bit-identical blobs, recons, and decodes. This is the gate the tentpole
// rides on: the fused index arithmetic must be observationally invisible.
func checkFusedEquivalence(t *testing.T, ds *dataset.Dataset, eb float64, p Pipeline, opt Options) {
	t.Helper()
	legacy := opt
	legacy.MaterializedPermute = true
	fblob, frecon, err := CompressWithRecon(ds, eb, p, opt)
	if err != nil {
		t.Fatalf("fused compress [%s]: %v", p, err)
	}
	lblob, lrecon, err := CompressWithRecon(ds, eb, p, legacy)
	if err != nil {
		t.Fatalf("legacy compress [%s]: %v", p, err)
	}
	if !bytes.Equal(fblob, lblob) {
		t.Fatalf("[%s] fused and materialized blobs differ: %d vs %d bytes", p, len(fblob), len(lblob))
	}
	if !bytes.Equal(floatsToBytes(frecon), floatsToBytes(lrecon)) {
		t.Fatalf("[%s] fused and materialized compress-side recons differ", p)
	}
	fdec, fdims, err := Decompress(fblob, DecompressOptions{})
	if err != nil {
		t.Fatalf("fused decode [%s]: %v", p, err)
	}
	ldec, ldims, err := Decompress(fblob, DecompressOptions{MaterializedPermute: true})
	if err != nil {
		t.Fatalf("legacy decode [%s]: %v", p, err)
	}
	if !dimsEqual(fdims, ds.Dims) || !dimsEqual(ldims, ds.Dims) {
		t.Fatalf("[%s] decoded dims %v / %v, want %v", p, fdims, ldims, ds.Dims)
	}
	if !bytes.Equal(floatsToBytes(fdec), floatsToBytes(ldec)) {
		t.Fatalf("[%s] fused and materialized decodes differ", p)
	}
	if !bytes.Equal(floatsToBytes(fdec), floatsToBytes(frecon)) {
		t.Fatalf("[%s] decode differs from compress-side recon", p)
	}
}

// TestFusedMatchesMaterializedProperty sweeps every permutation and fusion
// of rank-2 and rank-3 shapes across all three predictors, masked and
// unmasked. Any divergence found here should be minimized and promoted to
// regression_test.go.
func TestFusedMatchesMaterializedProperty(t *testing.T) {
	shapes := [][]int{{8, 7}, {6, 5, 4}}
	for si, dims := range shapes {
		n := len(dims)
		for _, masked := range []bool{false, true} {
			ds := equivDataset(dims, masked, int64(100+si))
			eb := ds.AbsErrorBound(1e-2)
			for _, perm := range grid.Permutations(n) {
				for _, f := range grid.Compositions(n) {
					for _, fit := range []predict.Fitting{predict.Cubic, predict.Linear, predict.Lorenzo} {
						p := Default(ds)
						p.Perm = perm
						p.Fusion = f
						p.Fitting = fit
						p.UseMask = masked
						checkFusedEquivalence(t, ds, eb, p, Options{})
					}
				}
			}
		}
	}
}

// TestFusedMatchesMaterializedPipelineFeatures covers the pipeline features
// the plain sweep leaves out: classification, periodic extraction, rANS and
// interleaved-rANS entropy, and multi-worker sectioned prediction (with the
// section floor lowered so small fixtures actually section).
func TestFusedMatchesMaterializedPipelineFeatures(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)

	t.Run("classify", func(t *testing.T) {
		p := Default(ds)
		p.Perm = []int{1, 0, 2}
		p.Classify = true
		checkFusedEquivalence(t, ds, eb, p, Options{})
	})
	t.Run("periodic", func(t *testing.T) {
		p := Default(ds)
		p.Period = 12
		p.Classify = true
		checkFusedEquivalence(t, ds, eb, p, Options{})
	})
	t.Run("rans", func(t *testing.T) {
		p := Default(ds)
		p.Perm = []int{2, 0, 1}
		checkFusedEquivalence(t, ds, eb, p, Options{Entropy: entropy.RANS})
	})
	t.Run("rans-interleaved", func(t *testing.T) {
		p := Default(ds)
		p.Perm = []int{2, 0, 1}
		checkFusedEquivalence(t, ds, eb, p, Options{Entropy: entropy.RANSInterleaved})
	})
	t.Run("workers-sectioned", func(t *testing.T) {
		p := Default(ds)
		p.Perm = []int{1, 2, 0}
		checkFusedEquivalence(t, ds, eb, p, Options{Workers: 3, sectionLeadFloor: 4})
	})
	t.Run("workers-sectioned-lorenzo", func(t *testing.T) {
		p := Default(ds)
		p.Fitting = predict.Lorenzo
		checkFusedEquivalence(t, ds, eb, p, Options{Workers: 3, sectionLeadFloor: 4})
	})
}

// TestFusedMatchesMaterializedChunked covers the CLZP chunked container:
// per-chunk blobs must be identical between the fused and materialized
// paths, so the container bytes must match end to end.
func TestFusedMatchesMaterializedChunked(t *testing.T) {
	ds := equivDataset([]int{12, 6, 5}, true, 7)
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	p.Perm = []int{1, 0, 2}
	p.UseMask = true

	fblob, err := CompressChunked(ds, eb, p, Options{}, 3, 2)
	if err != nil {
		t.Fatalf("fused chunked compress: %v", err)
	}
	lblob, err := CompressChunked(ds, eb, p, Options{MaterializedPermute: true}, 3, 2)
	if err != nil {
		t.Fatalf("legacy chunked compress: %v", err)
	}
	if !bytes.Equal(fblob, lblob) {
		t.Fatalf("chunked container differs: %d vs %d bytes", len(fblob), len(lblob))
	}
	fdec, _, err := Decompress(fblob, DecompressOptions{Workers: 2})
	if err != nil {
		t.Fatalf("fused chunked decode: %v", err)
	}
	ldec, _, err := Decompress(fblob, DecompressOptions{Workers: 2, MaterializedPermute: true})
	if err != nil {
		t.Fatalf("legacy chunked decode: %v", err)
	}
	if !bytes.Equal(floatsToBytes(fdec), floatsToBytes(ldec)) {
		t.Fatal("chunked fused and materialized decodes differ")
	}
}
