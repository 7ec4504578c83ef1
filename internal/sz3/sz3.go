// Package sz3 reimplements the SZ3 error-bounded lossy compressor
// (Zhao et al., ICDE 2021 — "dynamic spline interpolation"), the framework
// CliZ builds on and its primary comparator in the paper's evaluation.
//
// SZ3 is exactly the CliZ pipeline minus the four climate-specific
// optimizations: no mask awareness (fill values enter prediction, which is
// why SZ3 collapses on masked ocean/land fields — paper §V-A), no dimension
// permutation or fusion (natural order), no periodic extraction, and a
// single Huffman tree. Like the original, it picks linear vs cubic fitting
// by compressing a small sample with both.
package sz3

import (
	"cliz/internal/codec"
	"cliz/internal/core"
	"cliz/internal/dataset"
	"cliz/internal/grid"
	"cliz/internal/predict"
)

// Compressor implements codec.Compressor.
type Compressor struct{}

func init() { codec.Register(Compressor{}) }

// Name implements codec.Compressor.
func (Compressor) Name() string { return "SZ3" }

// pipeline builds SZ3's fixed configuration for a dataset rank.
func pipeline(rank int, fit predict.Fitting) core.Pipeline {
	perm := make([]int, rank)
	for i := range perm {
		perm[i] = i
	}
	return core.Pipeline{
		Perm:    perm,
		Fusion:  grid.NoFusion(rank),
		Fitting: fit,
	}
}

// SelectFitting mimics SZ3's internal interpolation-algorithm selection:
// both fittings are tried on a ~1% sample and the smaller output wins.
func SelectFitting(ds *dataset.Dataset, eb float64) predict.Fitting {
	blocks := grid.SampleBlocks(ds.Dims, 0.01, 4)
	sample, sdims := grid.ConcatBlocks(ds.Data, ds.Dims, blocks)
	if len(sample) == 0 {
		return predict.Cubic
	}
	sub := &dataset.Dataset{Name: ds.Name + "-fitprobe", Data: sample, Dims: sdims}
	best := predict.Cubic
	bestLen := -1
	for _, fit := range []predict.Fitting{predict.Linear, predict.Cubic} {
		blob, err := core.Compress(sub, eb, pipeline(len(sdims), fit), core.Options{})
		if err != nil {
			continue
		}
		if bestLen < 0 || len(blob) < bestLen {
			best = fit
			bestLen = len(blob)
		}
	}
	return best
}

// Compress implements codec.Compressor. The mask and periodicity metadata
// are deliberately ignored — SZ3 is a general-purpose compressor.
func (Compressor) Compress(ds *dataset.Dataset, eb float64) ([]byte, error) {
	plain := *ds
	plain.Mask = nil
	plain.Periodic = false
	fit := SelectFitting(&plain, eb)
	return core.Compress(&plain, eb, pipeline(len(ds.Dims), fit), core.Options{})
}

// Decompress implements codec.Compressor.
func (Compressor) Decompress(blob []byte) ([]float32, []int, error) {
	return core.Decompress(blob, core.DecompressOptions{})
}
