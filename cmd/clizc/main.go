// Command clizc compresses and decompresses raw float32 climate grids with
// CliZ or any of the reimplemented baseline compressors.
//
// Compress:
//
//	clizc -compress -in field.f32 -dims 1032x384x320 -rel 1e-2 \
//	      -codec CliZ -lead time -periodic -mask-fill 1e30 -out field.clz
//
// Decompress (the blob is self-describing):
//
//	clizc -decompress -in field.clz -out recon.f32
//
// Verify a round trip against the original:
//
//	clizc -decompress -in field.clz -orig field.f32 -dims 1032x384x320
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"cliz/internal/codec"
	"cliz/internal/core"
	"cliz/internal/dataset"
	"cliz/internal/mask"
	"cliz/internal/netcdf"
	"cliz/internal/quality"
	"cliz/internal/stats"
	"cliz/internal/trace"

	_ "cliz/internal/qoz"
	_ "cliz/internal/sperr"
	_ "cliz/internal/sz3"
	_ "cliz/internal/zfp"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "clizc:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("clizc", flag.ContinueOnError)
	var (
		doCompress   = fs.Bool("compress", false, "compress -in (raw little-endian float32) to -out")
		doDecompress = fs.Bool("decompress", false, "decompress -in to -out (raw float32)")
		in           = fs.String("in", "", "input file")
		out          = fs.String("out", "", "output file (optional for -decompress with -orig)")
		dimsFlag     = fs.String("dims", "", "grid extents, e.g. 1032x384x320 (trailing two are lat,lon)")
		codecName    = fs.String("codec", "CliZ", fmt.Sprintf("compressor: one of %v", codec.Names()))
		rel          = fs.Float64("rel", 0, "relative error bound (fraction of value range)")
		abs          = fs.Float64("abs", 0, "absolute error bound")
		lead         = fs.String("lead", "none", "leading dimension meaning: none|time|height")
		periodic     = fs.Bool("periodic", false, "mark the time dimension as periodic")
		maskFill     = fs.Float64("mask-fill", 0, "derive a mask: |value| >= threshold is invalid")
		orig         = fs.String("orig", "", "original raw file for verification after -decompress")
		ncVar        = fs.String("nc-var", "", "read this variable from a NetCDF classic -in file (dims come from the file)")
		ncMask       = fs.String("nc-mask", "", "NetCDF variable holding the region mask (0 = invalid)")
		chunks       = fs.Int("chunks", 0, "CliZ only: split along dim 0 into this many chunks compressed in parallel")
		workers      = fs.Int("workers", 0, "worker goroutines for -chunks, and for decode (0 = all cores for a chunked blob, serial otherwise)")
		verbose      = fs.Bool("v", false, "CliZ only: print a per-stage timing/byte table to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *doCompress == *doDecompress:
		return fmt.Errorf("exactly one of -compress / -decompress is required")
	case *in == "":
		return fmt.Errorf("-in is required")
	}

	if *doCompress {
		var (
			data []float32
			dims []int
			ds   *dataset.Dataset
			err  error
		)
		if *ncVar != "" {
			ds, err = loadNetCDF(*in, *ncVar, *ncMask)
			if err != nil {
				return err
			}
			data, dims = ds.Data, ds.Dims
		} else {
			dims, err = parseDims(*dimsFlag)
			if err != nil {
				return err
			}
			data, err = readFloats(*in)
			if err != nil {
				return err
			}
			ds = &dataset.Dataset{Name: *in, Data: data, Dims: dims}
		}
		switch strings.ToLower(*lead) {
		case "time":
			ds.Lead = dataset.LeadTime
		case "height":
			ds.Lead = dataset.LeadHeight
		case "none", "":
		default:
			return fmt.Errorf("unknown -lead %q", *lead)
		}
		ds.Periodic = *periodic
		if *maskFill > 0 {
			if len(dims) < 2 {
				return fmt.Errorf("-mask-fill needs at least 2 dims")
			}
			nLat, nLon := dims[len(dims)-2], dims[len(dims)-1]
			ds.Mask = mask.FromFillValue(data[:nLat*nLon], nLat, nLon, *maskFill)
			ds.FillValue = firstFill(data, ds.Mask)
		}
		if err := ds.Validate(); err != nil {
			return err
		}
		var eb float64
		switch {
		case *abs > 0 && *rel == 0:
			eb = *abs
		case *rel > 0 && *abs == 0:
			eb = ds.AbsErrorBound(*rel)
		default:
			return fmt.Errorf("exactly one of -rel / -abs must be positive")
		}
		c, err := codec.Get(*codecName)
		if err != nil {
			return err
		}
		if *verbose && *codecName != "CliZ" {
			return fmt.Errorf("-v requires -codec CliZ")
		}
		var rec trace.Recorder
		var opt core.Options
		if *verbose {
			opt.Trace = &rec
		}
		var blob []byte
		if *chunks > 1 {
			if *codecName != "CliZ" {
				return fmt.Errorf("-chunks requires -codec CliZ")
			}
			best, _, err := core.AutoTune(ds, eb, core.TuneConfig{}, opt)
			if err != nil {
				return err
			}
			blob, err = core.CompressChunked(ds, eb, best, opt, *chunks, *workers)
			if err != nil {
				return err
			}
		} else if *verbose {
			best, _, err := core.AutoTune(ds, eb, core.TuneConfig{}, opt)
			if err != nil {
				return err
			}
			blob, err = core.Compress(ds, eb, best, opt)
			if err != nil {
				return err
			}
		} else {
			blob, err = c.Compress(ds, eb)
			if err != nil {
				return err
			}
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "compress stages:\n%s", trace.Table(rec.Aggregate()))
		}
		if *out == "" {
			*out = *in + ".clz"
		}
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			return err
		}
		fmt.Printf("%s: %d -> %d bytes (ratio %.2f, %.3f bits/point) with %s\n",
			*out, len(data)*4, len(blob),
			stats.Ratio(len(data), len(blob)),
			stats.BitRate(len(blob), len(data)), c.Name())
		return nil
	}

	// Decompress: probe every codec (blobs are self-describing).
	blob, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	var data []float32
	var dims []int
	var used string
	var rec trace.Recorder
	var tc trace.Collector
	if *verbose {
		tc = &rec
	}
	chunked := core.IsChunked(blob)
	if d, dm, derr := core.Decompress(blob, core.DecompressOptions{Workers: *workers, Trace: tc}); derr == nil {
		data, dims, used = d, dm, "CliZ"
		if chunked {
			used = "CliZ (chunked)"
		}
	} else if chunked || core.IsUnit(blob) {
		// The magic says CliZ; no other codec can recognise it. Surface the
		// real failure (v3 blobs attribute it to a named section) instead of
		// the generic no-codec message.
		return fmt.Errorf("damaged CliZ blob (clizinspect -verify locates the damage): %w", derr)
	} else {
		rec.Reset()
	}
	for _, name := range codec.Names() {
		if used != "" {
			break
		}
		c, _ := codec.Get(name)
		if d, dm, derr := c.Decompress(blob); derr == nil {
			data, dims, used = d, dm, name
			break
		}
	}
	if used == "" {
		return fmt.Errorf("no registered codec recognises %s", *in)
	}
	if *verbose && rec.Stages() != nil {
		fmt.Fprintf(os.Stderr, "decode stages:\n%s", trace.Table(rec.Aggregate()))
	}
	fmt.Printf("%s: decoded %v (%d points) with %s\n", *in, dims, len(data), used)
	if *out != "" {
		if err := writeFloats(*out, data); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *orig != "" {
		ref, err := readFloats(*orig)
		if err != nil {
			return err
		}
		if len(ref) != len(data) {
			return fmt.Errorf("original has %d points, reconstruction %d", len(ref), len(data))
		}
		// Full Z-checker-style assessment; huge sentinels are treated as
		// masked so fill values do not drown the statistics.
		valid := make([]bool, len(ref))
		anyMasked := false
		for i, v := range ref {
			valid[i] = math.Abs(float64(v)) < 1e30 && !math.IsNaN(float64(v))
			if !valid[i] {
				anyMasked = true
			}
		}
		if !anyMasked {
			valid = nil
		}
		fmt.Print(quality.Assess(ref, data, dims, valid))
	}
	return nil
}

func parseDims(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("-dims is required for -compress")
	}
	parts := strings.Split(strings.ToLower(s), "x")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad dims %q", s)
		}
		dims = append(dims, v)
	}
	return dims, nil
}

func readFloats(path string) ([]float32, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("%s: size %d is not a float32 array", path, len(raw))
	}
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out, nil
}

func writeFloats(path string, data []float32) error {
	raw := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	return os.WriteFile(path, raw, 0o644)
}

// loadNetCDF reads a variable (and optionally a mask variable) from a
// NetCDF classic file into a dataset.
func loadNetCDF(path, varName, maskVar string) (*dataset.Dataset, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := netcdf.Parse(raw)
	if err != nil {
		return nil, err
	}
	data, dims, err := f.ReadFloat32(varName)
	if err != nil {
		return nil, err
	}
	ds := &dataset.Dataset{Name: path + ":" + varName, Data: data, Dims: dims}
	v, _ := f.FindVar(varName)
	if fill, ok := v.FillValue(); ok {
		ds.FillValue = float32(fill)
	}
	if maskVar != "" {
		if len(dims) < 2 {
			return nil, fmt.Errorf("mask needs at least 2 dims")
		}
		mv, mdims, err := f.ReadFloat32(maskVar)
		if err != nil {
			return nil, err
		}
		nLat, nLon := dims[len(dims)-2], dims[len(dims)-1]
		if len(mdims) != 2 || mdims[0] != nLat || mdims[1] != nLon {
			return nil, fmt.Errorf("mask variable %s dims %v do not match grid %dx%d",
				maskVar, mdims, nLat, nLon)
		}
		regions := make([]int32, len(mv))
		for i, x := range mv {
			regions[i] = int32(x)
		}
		ds.Mask = mask.New(nLat, nLon, regions)
	}
	return ds, nil
}

func firstFill(data []float32, m *mask.Map) float32 {
	for i, r := range m.Regions {
		if r == 0 {
			return data[i]
		}
	}
	return 0
}
