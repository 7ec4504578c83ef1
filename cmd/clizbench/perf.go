package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cliz/internal/core"
	"cliz/internal/datagen"
	"cliz/internal/trace"
)

// Perf-regression mode: compress and decompress a fixed set of synthetic
// fields, record throughput / ratio / per-stage shares, and emit the result
// as machine-readable JSON (BENCH_PR.json) for cross-PR comparison:
//
//	clizbench -perf -out results/
//
// Numbers are medians over -perf-reps runs so a single scheduler hiccup
// does not move the regression baseline.

// perfStage is one aggregated pipeline stage in the report.
type perfStage struct {
	Name     string  `json:"name"`
	Millis   float64 `json:"ms"`
	Share    float64 `json:"share"`               // fraction of summed stage time
	OutBytes int64   `json:"out_bytes,omitempty"` // section payload, if any
}

// perfField is the full record for one benchmark field.
type perfField struct {
	Field           string  `json:"field"`
	Dims            []int   `json:"dims"`
	Points          int     `json:"points"`
	RelErrorBound   float64 `json:"rel_error_bound"`
	AbsErrorBound   float64 `json:"abs_error_bound"`
	Pipeline        string  `json:"pipeline"`
	CompressedBytes int     `json:"compressed_bytes"`
	Ratio           float64 `json:"ratio"`
	BitsPerPoint    float64 `json:"bits_per_point"`
	CompressMBps    float64 `json:"compress_mb_per_s"`
	DecompressMBps  float64 `json:"decompress_mb_per_s"`
	// Integrity* quantify the v3 checksum cost: directory+CRC bytes in the
	// blob (size overhead) and the decode throughput when every checksum is
	// re-verified up front (DecompressVerified vs plain Decompress).
	IntegrityBytes         int     `json:"integrity_bytes"`
	IntegrityOverheadPct   float64 `json:"integrity_overhead_pct"`
	VerifiedDecompressMBps float64 `json:"verified_decompress_mb_per_s"`
	// VerifyOverheadPct is clamped at 0: verification strictly adds work,
	// so a negative measurement is scheduler noise, not a speedup. When the
	// raw delta came out negative, the clamp is flagged via
	// VerifyOverheadNoise so readers know the figure is noise-limited.
	VerifyOverheadPct   float64 `json:"verify_overhead_pct"`
	VerifyOverheadNoise bool    `json:"verify_overhead_noise,omitempty"`
	// Par* mirror the serial numbers with intra-blob parallelism enabled
	// (Workers = the -workers flag, default NumCPU). The parallel blob is a
	// v2 encoding whose ratio should match the serial one within ~1%.
	ParWorkers         int     `json:"par_workers,omitempty"`
	ParCompressedBytes int     `json:"par_compressed_bytes,omitempty"`
	ParRatio           float64 `json:"par_ratio,omitempty"`
	ParCompressMBps    float64 `json:"par_compress_mb_per_s,omitempty"`
	ParDecompressMBps  float64 `json:"par_decompress_mb_per_s,omitempty"`
	CompressSpeedup    float64 `json:"compress_speedup,omitempty"`
	DecompressSpeedup  float64 `json:"decompress_speedup,omitempty"`

	CompressStages []perfStage `json:"compress_stages"`
	DecodeStages   []perfStage `json:"decode_stages"`
}

// perfReport is the BENCH_PR.json document.
type perfReport struct {
	Schema     string      `json:"schema"`
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"num_cpu"`
	Scale      float64     `json:"scale"`
	Reps       int         `json:"reps"`
	UnixMillis int64       `json:"unix_millis"`
	Fields     []perfField `json:"fields"`
	// Estimate is the estimator-accuracy section written by -estimate mode
	// (see estimate.go). -perf rewrites the document without it, so run
	// -estimate after (or together with) -perf; -check grades the section
	// when present.
	Estimate *estimateReport `json:"estimate,omitempty"`
	// Stream is the temporal-streaming section written by -stream mode (see
	// stream.go); same merge semantics as Estimate.
	Stream *streamReport `json:"stream,omitempty"`
}

// perfFields is the standard corpus: an ocean field with a region mask and
// periodicity (SSH-like) and two atmosphere fields (Hurricane-like, CESM-T).
var perfFields = []string{"SSH", "Hurricane-T", "CESM-T"}

func runPerf(scale float64, reps, workers int, outDir string, log io.Writer) error {
	if scale <= 0 {
		scale = 0.25
	}
	if reps < 1 {
		reps = 3
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	const rel = 1e-2
	report := perfReport{
		Schema:     "cliz-bench-pr/5",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Scale:      scale,
		Reps:       reps,
		UnixMillis: time.Now().UnixMilli(),
	}
	for _, name := range perfFields {
		ds, err := datagen.ByName(name, scale)
		if err != nil {
			return err
		}
		eb := ds.AbsErrorBound(rel)
		best, _, err := core.AutoTune(ds, eb, core.TuneConfig{}, core.Options{})
		if err != nil {
			return fmt.Errorf("%s: tune: %w", name, err)
		}
		mb := float64(ds.Points()) * 4 / (1 << 20)

		var blob []byte
		var cTimes, dTimes []time.Duration
		var cRec, dRec trace.Recorder
		for r := 0; r < reps; r++ {
			cRec.Reset()
			t0 := time.Now()
			blob, err = core.Compress(ds, eb, best, core.Options{Trace: &cRec})
			cTimes = append(cTimes, time.Since(t0))
			if err != nil {
				return fmt.Errorf("%s: compress: %w", name, err)
			}
			dRec.Reset()
			t0 = time.Now()
			if _, _, err = core.Decompress(blob, core.DecompressOptions{Trace: &dRec}); err != nil {
				return fmt.Errorf("%s: decompress: %w", name, err)
			}
			dTimes = append(dTimes, time.Since(t0))
		}
		var vTimes []time.Duration
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			if _, _, _, err = core.DecompressVerified(blob, core.DecompressOptions{}); err != nil {
				return fmt.Errorf("%s: verified decompress: %w", name, err)
			}
			vTimes = append(vTimes, time.Since(t0))
		}
		info, err := core.Inspect(blob)
		if err != nil {
			return fmt.Errorf("%s: inspect: %w", name, err)
		}
		f := perfField{
			Field:           name,
			Dims:            ds.Dims,
			Points:          ds.Points(),
			RelErrorBound:   rel,
			AbsErrorBound:   eb,
			Pipeline:        best.String(),
			CompressedBytes: len(blob),
			Ratio:           float64(ds.Points()*4) / float64(len(blob)),
			BitsPerPoint:    float64(len(blob)) * 8 / float64(ds.Points()),
			CompressMBps:    mb / median(cTimes).Seconds(),
			DecompressMBps:  mb / median(dTimes).Seconds(),

			IntegrityBytes:         info.IntegrityTotal(),
			IntegrityOverheadPct:   100 * float64(info.IntegrityTotal()) / float64(len(blob)),
			VerifiedDecompressMBps: mb / median(vTimes).Seconds(),

			CompressStages: perfStages(cRec.Aggregate()),
			DecodeStages:   perfStages(dRec.Aggregate()),
		}
		f.VerifyOverheadPct = 100 * (median(vTimes).Seconds()/median(dTimes).Seconds() - 1)
		if f.VerifyOverheadPct < 0 {
			f.VerifyOverheadPct = 0
			f.VerifyOverheadNoise = true
		}

		// Parallel pass: same pipeline, intra-blob workers enabled on both
		// sides. Skipped when the budget is one worker (nothing to compare).
		if workers > 1 {
			var pBlob []byte
			var pcTimes, pdTimes []time.Duration
			for r := 0; r < reps; r++ {
				t0 := time.Now()
				pBlob, err = core.Compress(ds, eb, best, core.Options{Workers: workers})
				pcTimes = append(pcTimes, time.Since(t0))
				if err != nil {
					return fmt.Errorf("%s: parallel compress: %w", name, err)
				}
				t0 = time.Now()
				if _, _, err = core.Decompress(pBlob,
					core.DecompressOptions{Workers: workers}); err != nil {
					return fmt.Errorf("%s: parallel decompress: %w", name, err)
				}
				pdTimes = append(pdTimes, time.Since(t0))
			}
			f.ParWorkers = workers
			f.ParCompressedBytes = len(pBlob)
			f.ParRatio = float64(ds.Points()*4) / float64(len(pBlob))
			f.ParCompressMBps = mb / median(pcTimes).Seconds()
			f.ParDecompressMBps = mb / median(pdTimes).Seconds()
			f.CompressSpeedup = f.ParCompressMBps / f.CompressMBps
			f.DecompressSpeedup = f.ParDecompressMBps / f.DecompressMBps
		}
		report.Fields = append(report.Fields, f)
		if log != nil {
			fmt.Fprintf(log, "perf %-12s ratio %7.2f  compress %7.1f MB/s  decompress %7.1f MB/s\n",
				name, f.Ratio, f.CompressMBps, f.DecompressMBps)
			fmt.Fprintf(log, "perf %-12s   integrity %d bytes (%.3f%% size)  verified decompress %7.1f MB/s (+%.1f%% time)\n",
				name, f.IntegrityBytes, f.IntegrityOverheadPct,
				f.VerifiedDecompressMBps, f.VerifyOverheadPct)
			if f.ParWorkers > 1 {
				fmt.Fprintf(log, "perf %-12s   par(w=%d) ratio %7.2f  compress %7.1f MB/s (%.2fx)  decompress %7.1f MB/s (%.2fx)\n",
					name, f.ParWorkers, f.ParRatio,
					f.ParCompressMBps, f.CompressSpeedup,
					f.ParDecompressMBps, f.DecompressSpeedup)
			}
		}
	}
	path := "BENCH_PR.json"
	if outDir != "" {
		path = filepath.Join(outDir, path)
	}
	buf, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if log != nil {
		fmt.Fprintf(log, "wrote %s\n", path)
	}
	return nil
}

// perfStages converts aggregated trace records (from the last rep — shares
// are stable across reps) into report rows, skipping the totals.
func perfStages(agg []trace.Stage) []perfStage {
	var sum time.Duration
	for _, s := range agg {
		if s.Name != "total" {
			sum += s.Duration
		}
	}
	out := make([]perfStage, 0, len(agg))
	for _, s := range agg {
		if s.Name == "total" {
			continue
		}
		ps := perfStage{
			Name:     s.Name,
			Millis:   float64(s.Duration) / float64(time.Millisecond),
			OutBytes: s.OutBytes,
		}
		if sum > 0 {
			ps.Share = float64(s.Duration) / float64(sum)
		}
		out = append(out, ps)
	}
	return out
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
