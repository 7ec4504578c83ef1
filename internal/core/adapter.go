package core

import (
	"fmt"
	"sync"

	"cliz/internal/codec"
	"cliz/internal/dataset"
)

// Codec adapts the CliZ compressor to the common codec.Compressor interface
// used by the benchmark harness and CLI. Each Compress call auto-tunes at
// the configured sampling rate; tuned pipelines are cached per
// (dataset name, dims, error bound), mirroring the paper's offline/online
// split where one tuning run serves every field of a climate model.
type Codec struct {
	// Tune configures the auto-tuner (zero value = paper defaults).
	Tune TuneConfig
	// Opt configures implementation knobs.
	Opt Options

	mu    sync.Mutex
	cache map[string]Pipeline
}

func init() { codec.Register(NewCodec()) }

// NewCodec returns a CliZ codec with paper-default tuning (1% sampling).
func NewCodec() *Codec {
	return &Codec{cache: map[string]Pipeline{}}
}

// Name implements codec.Compressor.
func (*Codec) Name() string { return "CliZ" }

// Compress implements codec.Compressor.
func (c *Codec) Compress(ds *dataset.Dataset, eb float64) ([]byte, error) {
	p, err := c.pipelineFor(ds, eb)
	if err != nil {
		return nil, err
	}
	return Compress(ds, eb, p, c.Opt)
}

// Decompress implements codec.Compressor.
func (*Codec) Decompress(blob []byte) ([]float32, []int, error) {
	return Decompress(blob, DecompressOptions{})
}

func (c *Codec) pipelineFor(ds *dataset.Dataset, eb float64) (Pipeline, error) {
	key := fmt.Sprintf("%s|%v|%g", ds.Name, ds.Dims, eb)
	c.mu.Lock()
	if c.cache == nil {
		c.cache = map[string]Pipeline{}
	}
	p, ok := c.cache[key]
	c.mu.Unlock()
	if ok {
		return p, nil
	}
	best, _, err := AutoTune(ds, eb, c.Tune, c.Opt)
	if err != nil {
		return Pipeline{}, err
	}
	c.mu.Lock()
	c.cache[key] = best
	c.mu.Unlock()
	return best, nil
}
