// Command perfbench is the repository's benchmark. It runs one of
// four workloads against the public CliZ API and the in-process clizd
// server, checks every output, and prints the workload's metrics:
//
//	go run . --workload archive --seed 1 --seconds 12 --trace 0
//
// (from this directory; run.sh wraps the build for a checkout root). With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// also replays each operation's layer kernels on that operation's own data
// and prints the per-layer metrics instead. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// options are the command-line inputs every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*report, error){
	"archive": runArchive,
	"tune":    runTune,
	"serve":   runServe,
	"stream":  runStream,
}

// e2eUnits lists every end-to-end metric with its unit. Every workload
// reports all of them (see BENCHMARK.json for what each means per workload).
var e2eUnits = map[string]string{
	"setup_s":         "s",
	"compress_mb_s":   "MB/s",
	"decompress_mb_s": "MB/s",
	"ratio":           "x",
	"tune_s":          "s",
	"estimate_ms":     "ms",
	"alloc_mb_per_op": "MB",
	"latency_p50_ms":  "ms",
	"latency_p95_ms":  "ms",
	"throughput_rps":  "req/s",
	"seek_ms":         "ms",
}

// layerUnits lists every per-layer metric of the traced run with its unit.
// The traced run additionally reports each end-to-end metric as
// "traced.<name>", measured with the layer replay interleaved, so the
// tracing overhead is the difference to the untraced run's value.
var layerUnits = map[string]string{
	"interp.encode_ns_per_point":     "ns",
	"interp.alloc_bytes_per_point":   "bytes",
	"interp.decode_ns_per_point":     "ns",
	"quant.ns_per_point":             "ns",
	"quant.literal_frac":             "frac",
	"huffman.count_ns_per_symbol":    "ns",
	"huffman.encode_ns_per_symbol":   "ns",
	"huffman.build_us_per_table":     "us",
	"huffman.alloc_bytes_per_symbol": "bytes",
	"huffman.decode_ns_per_symbol":   "ns",
	"huffman.alphabet":               "count",
	"rans.encode_ns_per_symbol":      "ns",
	"rans.decode_ns_per_symbol":      "ns",
	"entropy.bits_per_symbol":        "bits",
	"lossless.encode_ns_per_byte":    "ns",
	"lossless.alloc_bytes_per_call":  "bytes",
	"lossless.decode_ns_per_byte":    "ns",
	"lossless.gain":                  "x",
	"mask.ns_per_point":              "ns",
	"grid.transpose_ns_per_point":    "ns",
	"grid.transpose_calls":           "count",
	"core.self_frac":                 "frac",
	"core.decode_self_frac":          "frac",
	"core.stage_frac":                "frac",
	"core.decode_stage_frac":         "frac",
	"tune.candidates":                "count",
	"tune.ms_per_candidate":          "ms",
	"tune.search_frac":               "frac",
	"tune.sample_points":             "count",
	"estimate.accept_frac":           "frac",
	"stream.append_ns_per_point":     "ns",
	"stream.delta_frac":              "frac",
	"stream.replay_frames_per_seek":  "count",
	"service.cache_hit_frac":         "frac",
	"service.queue_depth_max":        "count",
	"service.rejected_frac":          "frac",
	"service.overhead_ms":            "ms",
	"runtime.gc_cycles_per_op":       "count",
	"runtime.gc_cpu_frac":            "frac",
	"loadgen.late_p95_ms":            "ms",
}

func init() {
	for name, unit := range e2eUnits {
		layerUnits["traced."+name] = unit
	}
}

// report is what a workload run produces.
type report struct {
	attempted int // operations run
	failed    int // operations that errored, failed a check or ran late
	wrong     int // operations that errored or failed an output check
	failures  []string
	e2e       map[string]float64
	layer     map[string]float64
	// meta is the run metadata printed before the result line.
	meta map[string]any
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, meta: map[string]any{}}
}

// op counts one operation; a non-nil err (an error or a failed output
// check) fails it. It reports whether the operation succeeded.
func (r *report) op(err error) bool {
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	r.wrong++
	r.note(err.Error())
	return false
}

// late counts one operation whose output was right but which missed the
// latency limit: failed, but not wrong.
func (r *report) late(msg string) {
	r.attempted++
	r.failed++
	r.note(msg)
}

// note keeps the first few failure messages for the log.
func (r *report) note(msg string) {
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: archive, tune, serve or stream")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 15, "measurement time")
	traceFlag := fs.Int("trace", 0, "1 replays layer kernels and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		return fmt.Errorf("bad --seconds %g or --trace %d", *seconds, *traceFlag)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	// archive, tune and stream are single-threaded (WithWorkers(1)). With
	// one P the collector works on the same CPU as the timed calls and the
	// speed probe, so their figures do not hang on how busy the machine's
	// other CPUs are. serve runs nproc workers and keeps every CPU.
	if *name != "serve" {
		runtime.GOMAXPROCS(1)
	}
	rep, err := wl(o)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	rep.meta["workload"] = *name
	rep.meta["seed"] = o.seed
	rep.meta["trace"] = o.trace
	addMachineMeta(rep.meta)
	return printReport(stdout, rep, o.trace)
}

// addMachineMeta records where the numbers were measured.
func addMachineMeta(m map[string]any) {
	m["nproc"] = runtime.NumCPU()
	m["gomaxprocs"] = runtime.GOMAXPROCS(0)
	m["go_version"] = runtime.Version()
	m["cpu_model"] = cpuModel()
	if _, ok := m["loadgen_goroutines"]; !ok {
		m["loadgen_goroutines"] = 0
		m["loadgen_connections"] = 0
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" when the
// platform has none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printReport writes the human-readable lines and then the result line. A
// metric the workload failed to produce, or a non-finite one, is an error:
// a caller must never see a partial result.
func printReport(w io.Writer, rep *report, traced bool) error {
	units, values := e2eUnits, rep.e2e
	if traced {
		units, values = layerUnits, rep.layer
		for k, v := range rep.e2e {
			values["traced."+k] = v
		}
	}
	res := result{
		Correct:   rep.wrong == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	names := make([]string, 0, len(units))
	for n := range units {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v, ok := values[n]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured (value %v)", n, v)
		}
		res.Metrics[n] = metric{Value: v, Unit: units[n]}
	}
	meta, err := json.Marshal(rep.meta)
	if err != nil {
		// A non-finite diagnostic must not cost the run its result.
		meta = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(w, "meta %s\n", meta)
	for _, f := range rep.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, res.Metrics[n].Value, units[n])
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// timeSetup runs a workload's set-up reps times and returns the state of
// the last run with the median set-up time. f gets the set-up's meter,
// whose context it hands to long library calls so they are scaled
// piecewise. release (may be nil) frees each earlier state. Set-up is
// repeated where it is cheap enough, because one measurement of it is
// noisy.
func timeSetup[S any](reps int, f func(m *meter) (S, error), release func(S)) (S, float64, error) {
	var st S
	var totals []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		m := newMeter()
		m.begin()
		s, err := f(m)
		if err != nil {
			if i > 0 && release != nil {
				release(st)
			}
			return s, 0, err
		}
		totals = append(totals, m.end())
		if i > 0 && release != nil {
			release(st)
		}
		st = s
	}
	return st, median(totals), nil
}
