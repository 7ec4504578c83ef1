package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 15}, {25, 20}, {50, 35}, {75, 40}, {95, 48}, {100, 50},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	if xs[0] != 15 || xs[4] != 50 {
		t.Error("percentile reordered its input")
	}
}

func TestMeanOfMedians(t *testing.T) {
	// Two targets of different cost: each counts once, at its median,
	// however many samples it has.
	got := meanOfMedians([][]float64{{10, 12, 11}, {100, 300}})
	if !near(got, (11+200)/2.0) {
		t.Errorf("meanOfMedians = %v, want %v", got, (11+200)/2.0)
	}
}

// TestQuartilesMatchPython pins quartiles to the values CPython's
// statistics.quantiles(xs, n=4) gives, the spread measure the benchmark's
// bounds are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 7},
		{[]float64{1.5, 2.5, 10, 11, 12, 13, 14, 15, 16, 17}, 8.125, 15.25},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestOpenLoopChargesStallToQueuedRequests: with one connection, a stalled
// first request must raise the latency of every request due while it
// stalled, measured from their due times, not from when they were sent.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 120 * time.Millisecond
	const interval = 10 * time.Millisecond
	samples := openLoop(6, interval, 1, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	}, nil)
	if got := samples[0].latency(); got < stall {
		t.Fatalf("stalled request latency %v < stall %v", got, stall)
	}
	for i := 1; i < len(samples); i++ {
		// Request i was due i·interval after request 0 but could not be
		// sent before the stall ended.
		floor := stall - time.Duration(i)*interval
		if got := samples[i].latency(); got < floor {
			t.Errorf("request %d latency %v < %v: the stall was not charged", i, got, floor)
		}
		if samples[i].late() < floor {
			t.Errorf("request %d sent %v late, want at least %v", i, samples[i].late(), floor)
		}
	}
}

func TestOpenLoopKeepsScheduleAndErrors(t *testing.T) {
	boom := errors.New("boom")
	samples := openLoop(4, 5*time.Millisecond, 2, func(i int) error {
		if i == 2 {
			return boom
		}
		return nil
	}, nil)
	for i, s := range samples {
		if i > 0 && s.due.Sub(samples[i-1].due) != 5*time.Millisecond {
			t.Errorf("request %d due %v after the previous one", i, s.due.Sub(samples[i-1].due))
		}
		if s.sent.Before(s.due) {
			t.Errorf("request %d sent before it was due", i)
		}
		if (i == 2) != errors.Is(s.err, boom) {
			t.Errorf("request %d error %v", i, s.err)
		}
	}
}

// TestMeterConcurrentPolls: the library may poll the meter's context from
// several goroutines at once, which must be safe (run with -race), and
// only the goroutine that opened the span may cut it with a probe.
func TestMeterConcurrentPolls(t *testing.T) {
	m := newMeter()
	ctx := m.ctx()
	segStart := func() time.Time {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.segStart
	}
	m.begin()
	time.Sleep(probeEvery + 10*time.Millisecond)
	before := segStart()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				_ = ctx.Err()
			}
		}()
	}
	wg.Wait()
	if !segStart().Equal(before) {
		t.Fatal("a poll from a goroutine that does not own the span cut it")
	}
	_ = ctx.Err()
	if segStart().Equal(before) {
		t.Fatal("a due poll from the owning goroutine did not cut the span")
	}
	// The owner and two others polling together.
	time.Sleep(probeEvery + 10*time.Millisecond)
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = ctx.Err()
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		_ = ctx.Err()
	}
	close(stop)
	wg.Wait()
	if s := m.end(); !(s > 0) {
		t.Fatalf("span scaled to %v seconds", s)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	for _, set := range []map[string]string{e2eUnits, layerUnits} {
		for name, unit := range set {
			if !nameRE.MatchString(name) {
				t.Errorf("metric name %q does not match %s", name, nameRE)
			}
			if !unitRE.MatchString(unit) {
				t.Errorf("unit %q of %s does not match %s", unit, name, unitRE)
			}
		}
	}
}

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON checks that BENCHMARK.json parses, has exactly the
// format's keys, and names every workload and metric perfbench runs
// and prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[k]; !ok {
			t.Errorf("missing key %q", k)
		}
		delete(top, k)
	}
	for k := range top {
		t.Errorf("unexpected key %q", k)
	}
	var b benchFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}

	seen := map[string]bool{}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no runner in perfbench", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	for name := range workloads {
		if !seen[name] {
			t.Errorf("workload %q missing from BENCHMARK.json", name)
		}
	}

	e2e := map[string]bool{}
	largest, setup := 0.0, 0.0
	for _, m := range b.EndToEnd {
		if e2eUnits[m.Name] != m.Unit {
			t.Errorf("end-to-end %q unit %q, perfbench prints %q", m.Name, m.Unit, e2eUnits[m.Name])
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("end-to-end %q better=%q", m.Name, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %q bound %v", m.Name, m.Bound)
			continue
		}
		largest = math.Max(largest, *m.Bound)
		if m.Name == "setup_s" {
			setup = *m.Bound
			if m.Better != "lower" {
				t.Error("setup_s must be lower-is-better")
			}
		}
		e2e[m.Name] = true
	}
	if setup == 0 || setup < largest {
		t.Errorf("setup_s bound %v must be the largest (%v)", setup, largest)
	}
	for name := range e2eUnits {
		if !e2e[name] {
			t.Errorf("end-to-end metric %q missing from BENCHMARK.json", name)
		}
	}

	layer := map[string]bool{}
	for _, m := range b.PerLayer {
		if layerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer %q unit %q, perfbench prints %q", m.Name, m.Unit, layerUnits[m.Name])
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("per-layer %q better=%q", m.Name, m.Better)
		}
		if layer[m.Name] || e2e[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		layer[m.Name] = true
	}
	for name := range layerUnits {
		if !layer[name] {
			t.Errorf("per-layer metric %q missing from BENCHMARK.json", name)
		}
	}
}
