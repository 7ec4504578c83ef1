// Package baselines exposes the reimplemented comparator compressors of the
// paper's evaluation (SZ3, QoZ, ZFP, SPERR) next to CliZ itself, so
// downstream users can reproduce the comparisons on their own data.
// All compressors speak the same interface: float32 grid in, self-describing
// blob out, strict absolute error bound (ZFP's bound is the fixed-accuracy
// tolerance semantics of the original).
package baselines

import (
	"errors"

	"cliz"
	"cliz/internal/codec"
	"cliz/internal/dataset"

	// Register all compressors.
	_ "cliz/internal/qoz"
	_ "cliz/internal/sperr"
	_ "cliz/internal/sz3"
	_ "cliz/internal/zfp"
)

// Names lists the available compressors ("CliZ", "QoZ", "SPERR", "SZ3",
// "ZFP").
func Names() []string { return codec.Names() }

// Compress encodes the dataset with the named compressor under the error
// bound. Baselines ignore the mask/periodicity metadata (they are
// general-purpose); CliZ auto-tunes with the paper's defaults.
func Compress(name string, ds *cliz.Dataset, eb cliz.ErrorBound) ([]byte, error) {
	c, err := codec.Get(name)
	if err != nil {
		return nil, err
	}
	ids, abs, err := convert(ds, eb)
	if err != nil {
		return nil, err
	}
	return c.Compress(ids, abs)
}

// Decompress decodes a blob produced by the named compressor.
func Decompress(name string, blob []byte) ([]float32, []int, error) {
	c, err := codec.Get(name)
	if err != nil {
		return nil, nil, err
	}
	return c.Decompress(blob)
}

func convert(ds *cliz.Dataset, eb cliz.ErrorBound) (*dataset.Dataset, float64, error) {
	if ds == nil {
		return nil, 0, errors.New("baselines: nil dataset")
	}
	ids, err := dataset.FromFlat(dataset.Dataset{
		Name:      ds.Name,
		Data:      ds.Data,
		Dims:      ds.Dims,
		Lead:      dataset.LeadKind(ds.Lead),
		Periodic:  ds.Periodic,
		FillValue: ds.FillValue,
	}, ds.MaskRegions)
	if err != nil {
		return nil, 0, err
	}
	abs, err := ids.ResolveBound(eb.Rel, eb.Abs)
	return ids, abs, err
}
