package main

import (
	"bytes"
	"compress/flate"
	"context"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// The machines this benchmark runs on are shared: the same CPU-bound work
// can take twice as long for seconds at a time while a neighbour is busy,
// in CPU time as well as in wall time. Every timing is therefore scaled by
// a speed probe run right beside it: a fixed mix of work that uses nothing
// from this repository (a float stencil with quantization, byte counting
// into a table, and stdlib flate), so no change to the program can move
// it. A span of wall time t is reported as t·refProbe/c, with c the
// median of the recent probes around it: what it would have taken on a
// machine running the probe in refProbe.

// refProbe is the nominal probe time the scaled timings refer to.
const refProbe = 10 * time.Millisecond

// spanExponent is the power the probe's speed factor is raised to for
// spans, the long library calls a meter cuts into segments. Those calls
// work on megabytes of arrays and a busy garbage-collected heap, and they
// slow down more than the cache-sized probe when the machine is busy:
// across runs of this benchmark on a 2-vCPU Xeon VM, compress, decompress
// and AutoTune times grew as the probe time to a power of 1.1 to 1.8
// (varying with what the neighbours were doing), and scaled by the plain
// factor they still read up to 10% slower in the runs whose probes were
// slowest. Short calls timed in groups (seeks, stream frames) grew as the
// probe did, so their factor stays unraised.
const spanExponent = 1.3

// prober holds the probe's buffers so a probe allocates nothing: it must
// not trigger garbage collection that would then be charged to it.
type prober struct {
	xs     []float32
	counts [256]int
	buf    bytes.Buffer
	fw     *flate.Writer
	sink   float64
}

var probeData = func() []byte {
	rng := rand.New(rand.NewSource(42))
	b := make([]byte, 96<<10)
	for i := range b {
		// Skewed bytes: compressible the way quantization-bin streams are.
		b[i] = byte(rng.ExpFloat64() * 6)
	}
	return b
}()

func newProber() *prober {
	p := &prober{xs: make([]float32, 1<<16)}
	p.buf.Grow(len(probeData))
	p.fw, _ = flate.NewWriter(&p.buf, 6) // level 6 is valid: no error
	return p
}

// once runs the probe and returns its wall time.
func (p *prober) once() time.Duration {
	t0 := time.Now()
	for i := range p.xs {
		p.xs[i] = float32(math.Sin(float64(i) * 0.001))
	}
	acc := 0.0
	for r := 0; r < 6; r++ {
		for i := 1; i < len(p.xs)-1; i++ {
			pred := 0.5 * (float64(p.xs[i-1]) + float64(p.xs[i+1]))
			q := math.Round((float64(p.xs[i]) - pred) / 1e-3)
			acc += q
			p.xs[i] = float32(pred + q*1e-3)
		}
	}
	p.counts = [256]int{}
	for _, c := range probeData {
		p.counts[c]++
	}
	acc += float64(p.counts[0])
	p.buf.Reset()
	p.fw.Reset(&p.buf)
	_, _ = p.fw.Write(probeData) // writes to a bytes.Buffer do not fail
	_ = p.fw.Close()
	acc += float64(p.buf.Len())
	p.sink += acc
	return time.Since(t0)
}

// probeWindow is how many recent probes a scale factor is the median of:
// the probe before and after a segment and the three before those. One
// probe reads the speed of a few milliseconds and scatters by ±30%; the
// median of five tracks the speed changes that last long enough to move a
// run's result.
const probeWindow = 5

// window keeps the last probeWindow probe times.
type window struct {
	ds []time.Duration
}

// add records a probe and returns the scale factor refProbe/median.
func (w *window) add(c time.Duration) float64 {
	if len(w.ds) == probeWindow {
		copy(w.ds, w.ds[1:])
		w.ds = w.ds[:probeWindow-1]
	}
	w.ds = append(w.ds, c)
	xs := make([]float64, len(w.ds))
	for i, d := range w.ds {
		xs[i] = float64(d)
	}
	return float64(refProbe) / median(xs)
}

// meter scales timings by speed probes. A span (begin … end) is cut into
// segments at most about probeEvery long: the library polls the meter's
// context at its stage, chunk and tuner-candidate boundaries, and a poll
// that finds the open segment older than probeEvery closes it with a
// probe. Each segment is scaled by the probes at its two ends, and the
// probe's own time falls between segments, never inside one. Spreading the
// probes through long calls is what makes the scaling work: the machine's
// speed changes within tens of milliseconds, so one probe says little, but
// the mean over a run's hundreds of probes tracks it.
//
// The library may poll from several goroutines at once (its chunked and
// parallel paths do). Only polls from the goroutine that opened the span
// cut it: a probe run from a worker would share the CPUs with the other
// workers and read the machine as slower than it is. mu makes every other
// poll a safe no-op.
type meter struct {
	mu       sync.Mutex
	owner    uint64 // id of the goroutine that opened the span
	p        *prober
	w        window
	open     bool
	segStart time.Time
	span     float64 // scaled seconds of the open span
	spanRaw  float64 // its wall seconds, probes excluded
	// raw and scaled total up every span measured, for the meta line.
	raw, scaled float64
}

// probeEvery is the longest segment before a poll takes a probe: a probe
// costs about a tenth of that.
const probeEvery = 100 * time.Millisecond

func newMeter() *meter {
	m := &meter{p: newProber()}
	m.w.add(m.p.once())
	return m
}

// cut closes the current segment with a probe and opens the next. The
// caller holds mu.
func (m *meter) cut() {
	d := time.Since(m.segStart).Seconds()
	f := math.Pow(m.w.add(m.p.once()), spanExponent)
	m.span += d * f
	m.spanRaw += d
	m.raw += d
	m.scaled += d * f
	m.segStart = time.Now()
}

// begin opens a span owned by the calling goroutine.
func (m *meter) begin() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.open, m.span, m.spanRaw = true, 0, 0
	m.owner = goid()
	m.segStart = time.Now()
}

// end closes the span and returns its scaled seconds.
func (m *meter) end() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cut()
	m.open = false
	return m.span
}

// wall is the last span's wall time without the probes run inside it.
func (m *meter) wall() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return time.Duration(m.spanRaw * float64(time.Second))
}

// poll cuts the open span when its segment has run probeEvery and the
// caller owns the span. A poll that finds the meter busy skips: the lock
// is only contended by polls that would not cut, and the owner's next
// poll cuts instead.
func (m *meter) poll() {
	if !m.mu.TryLock() {
		return
	}
	defer m.mu.Unlock()
	if m.open && time.Since(m.segStart) >= probeEvery && goid() == m.owner {
		m.cut()
	}
}

// goid is the calling goroutine's id, read from its stack header
// ("goroutine 12 [running]:"). It costs a microsecond or so, which is why
// poll asks for it only once a cut is due.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64) // the header's format is fixed
	return id
}

// ctx is the context to hand the library so it polls the meter. It is
// never done.
func (m *meter) ctx() context.Context { return meterCtx{m} }

type meterCtx struct{ m *meter }

func (meterCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (meterCtx) Done() <-chan struct{}       { return nil }
func (meterCtx) Value(any) any               { return nil }

// Err polls the meter and reports that the context is still live.
func (c meterCtx) Err() error {
	c.m.poll()
	return nil
}

// scale times a group of short calls that ran back to back without polls
// (frames, seeks): it probes once and returns each call's scaled seconds.
func (m *meter) scale(ds ...time.Duration) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.w.add(m.p.once())
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() * f
		m.raw += d.Seconds()
		m.scaled += out[i]
	}
	return out
}

// grouped times each of n calls of step and, when m is not nil, scales the
// times in groups of size so the probe runs between groups, outside every
// timed call. It returns the seconds of each call (scaled when m is set),
// stopping at the first error.
func grouped(m *meter, n, size int, step func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	group := make([]time.Duration, 0, size)
	flush := func() {
		if m == nil {
			for _, d := range group {
				out = append(out, d.Seconds())
			}
		} else {
			out = append(out, m.scale(group...)...)
		}
		group = group[:0]
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := step(i)
		group = append(group, time.Since(t0))
		if err != nil {
			return nil, err
		}
		if len(group) == size {
			flush()
		}
	}
	flush()
	return out, nil
}

// speed is the mean factor over every span measured (scaled ÷ raw time).
func (m *meter) speed() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.raw == 0 {
		return math.NaN()
	}
	return m.scaled / m.raw
}
