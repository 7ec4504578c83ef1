package core

import (
	"bytes"
	"math"
	"testing"

	"cliz/internal/datagen"
	"cliz/internal/dataset"
	"cliz/internal/entropy"
	"cliz/internal/grid"
	"cliz/internal/mask"
	"cliz/internal/stats"
)

// Regression tests promoted from minimized conformance-harness reproducers
// (internal/conform). Each pins a bug the seeded sweep surfaced; the shapes
// and knobs below are the shrunken cases, not arbitrary choices.

// TestRegressionChunkedMaskRank2 pins the chunkMask fix: for rank ≤ 2 the
// chunked container's split axis lies inside the horizontal (lat, lon) mask
// plane, so each chunk must carry a sliced mask. Passing the full mask made
// the sub-dataset fail validation ("mask HxW != grid") and the whole
// compress error out. Minimized reproducer: conform-repro shrunk to a 2x4
// masked grid split in two.
func TestRegressionChunkedMaskRank2(t *testing.T) {
	for _, tc := range []struct {
		name string
		dims []int
	}{
		{"rank2", []int{4, 4}},
		{"rank1", []int{8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nLat, nLon := 1, tc.dims[0]
			if len(tc.dims) == 2 {
				nLat, nLon = tc.dims[0], tc.dims[1]
			}
			vol := nLat * nLon
			data := make([]float32, vol)
			regions := make([]int32, vol)
			for i := range data {
				data[i] = float32(i) * 0.25
				if i%3 == 0 {
					data[i] = datagen.FillValue
					regions[i] = 0 // invalid cell
				} else {
					regions[i] = 1
				}
			}
			ds := &dataset.Dataset{
				Name:      "regress-chunk-mask",
				Data:      data,
				Dims:      tc.dims,
				Mask:      mask.New(nLat, nLon, regions),
				FillValue: datagen.FillValue,
			}
			p := Default(ds)
			p.UseMask = true
			eb := 1e-3
			blob, err := CompressChunked(ds, eb, p, Options{}, 2, 2)
			if err != nil {
				t.Fatalf("chunked compress with rank-%d mask: %v", len(tc.dims), err)
			}
			got, dims, err := Decompress(blob, DecompressOptions{Workers: 2})
			if err != nil {
				t.Fatalf("chunked decompress: %v", err)
			}
			if !dimsEqual(dims, ds.Dims) {
				t.Fatalf("dims %v want %v", dims, ds.Dims)
			}
			valid := ds.Validity()
			if got := stats.MaxAbsErr(ds.Data, got, valid); got > eb*(1+1e-9) {
				t.Fatalf("error bound violated: %g > %g", got, eb)
			}
			for i, ok := range valid {
				if !ok && got[i] != ds.FillValue {
					t.Fatalf("masked point %d = %g, want fill %g", i, got[i], ds.FillValue)
				}
			}
		})
	}
}

// TestRegressionShardedRANSWorkers pins the sharded rANS decode fix: with
// Workers ≥ 2 a low-entropy field encodes sub-block shards below one bit per
// symbol, and the shard directory's old >= 1 bit/symbol plausibility check
// rejected the (legitimate) blob at decode as "entropy: corrupt block".
// Minimized reproducer: conform-repro-11-7, dims [24, 8, 16], workers 2.
func TestRegressionShardedRANSWorkers(t *testing.T) {
	dims := []int{24, 8, 16}
	vol := dims[0] * dims[1] * dims[2]
	data := make([]float32, vol)
	for i := range data {
		// Smooth, heavily quantizable: nearly every bin is identical, which
		// is what pushes rANS below a bit per symbol.
		data[i] = float32(i%16) * 1e-6
	}
	ds := &dataset.Dataset{Name: "regress-rans-shards", Data: data, Dims: dims}
	eb := 0.5
	blob, err := Compress(ds, eb, Default(ds), Options{Entropy: entropy.RANS, Workers: 2})
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	for _, workers := range []int{1, 2, 4} {
		got, gdims, err := Decompress(blob, DecompressOptions{Workers: workers})
		if err != nil {
			t.Fatalf("decompress workers=%d: %v", workers, err)
		}
		if !dimsEqual(gdims, dims) {
			t.Fatalf("dims %v want %v", gdims, dims)
		}
		if gotErr := stats.MaxAbsErr(ds.Data, got, nil); gotErr > eb*(1+1e-9) {
			t.Fatalf("workers=%d error bound violated: %g > %g", workers, gotErr, eb)
		}
	}
}

// TestRegressionLevelAlphaSinglePoint pins the levelEBFactor clamp: a
// single-point dataset has Levels() == 0, so the origin was quantized at
// level 0 where α^(level−1) < 1 LOOSENED the bound by α instead of leaving
// it flat — errors up to α·eb escaped. Minimized reproducers:
// conform-repro-10-18 (α=1.5, eb=4e-5) and conform-repro-11-50 (α=2,
// eb=0.1), both dims [1].
func TestRegressionLevelAlphaSinglePoint(t *testing.T) {
	for _, tc := range []struct {
		alpha float64
		eb    float64
		val   float32
	}{
		{1.5, 4e-5, 0.001},
		{2, 0.1, -0.19768451},
		{2, 1e-5, 123.456},
	} {
		for _, dims := range [][]int{{1}, {1, 1}, {1, 1, 1}} {
			ds := &dataset.Dataset{Name: "regress-alpha", Data: []float32{tc.val}, Dims: dims}
			p := Default(ds)
			p.LevelAlpha = tc.alpha
			blob, err := Compress(ds, tc.eb, p, Options{})
			if err != nil {
				t.Fatalf("alpha=%g dims=%v compress: %v", tc.alpha, dims, err)
			}
			got, _, err := Decompress(blob, DecompressOptions{})
			if err != nil {
				t.Fatalf("alpha=%g dims=%v decompress: %v", tc.alpha, dims, err)
			}
			if d := math.Abs(float64(got[0]) - float64(tc.val)); d > tc.eb*(1+1e-9) {
				t.Fatalf("alpha=%g dims=%v: |%g − %g| = %g > eb %g",
					tc.alpha, dims, got[0], tc.val, d, tc.eb)
			}
		}
	}
}

// TestRegressionNonContiguousFusionFallback pins the fused-layout fallback
// boundary surfaced while building the fused-vs-materialized property sweep
// (fused_equiv_test.go): dims {2,3,4} with perm 102 and fusion 2&1 is the
// smallest pipeline whose permuted axes are not physically adjacent, so
// grid.FusedLayout must refuse it and both codec sides must silently take
// the materialized-transpose path — producing the same bytes the fused
// pipelines produce for expressible layouts. A regression here would either
// mis-fuse (wrong strides, wrong values) or diverge between the two paths.
func TestRegressionNonContiguousFusionFallback(t *testing.T) {
	dims := []int{2, 3, 4}
	perm := []int{1, 0, 2}
	fusion := grid.Fusion{Groups: []int{2, 1}}
	if _, ok := grid.FusedLayout(dims, perm, fusion); ok {
		t.Fatal("layout unexpectedly fusable; the fixture no longer covers the fallback")
	}
	data := make([]float32, 24)
	for i := range data {
		data[i] = float32(i*i%13) * 0.75
	}
	ds := &dataset.Dataset{Name: "regress-nonfusable", Data: data, Dims: dims}
	p := Default(ds)
	p.Perm = perm
	p.Fusion = fusion
	eb := 1e-3
	blob, recon, err := CompressWithRecon(ds, eb, p, Options{})
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	lblob, _, err := CompressWithRecon(ds, eb, p, Options{MaterializedPermute: true})
	if err != nil {
		t.Fatalf("legacy compress: %v", err)
	}
	if !bytes.Equal(blob, lblob) {
		t.Fatal("fallback blob differs from forced-materialized blob")
	}
	got, _, err := Decompress(blob, DecompressOptions{})
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	for i := range got {
		if got[i] != recon[i] {
			t.Fatalf("point %d: decode %g != compress-side recon %g", i, got[i], recon[i])
		}
		if d := math.Abs(float64(got[i]) - float64(data[i])); d > eb*(1+1e-9) {
			t.Fatalf("point %d: error %g > eb %g", i, d, eb)
		}
	}
}
