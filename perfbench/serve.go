package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cliz"
	"cliz/internal/datagen"
	"cliz/internal/service"
)

// The serve workload's traffic: an open loop at a fixed rate well below
// saturation. These constants are also recorded in BENCHMARK.json.
//
// No traffic recorded from a running clizd exists to copy the mix from, so
// it is the plainest one the workload's aims allow, an assumption rather
// than a measurement: equally sized families, and the hits split equally
// between the three request kinds (Huffman compress, rans-interleaved
// compress, decompress) and the families. Only the miss share is fixed by
// design: well below 5%, so p95 never flips between a hit and a miss. A
// miss also slows the requests served beside it, which share the CPUs with
// its estimate: at 1.5% misses and their neighbours were 3% of the
// requests, so the share is 1%. The meta line's miss_shadow_frac gives it.
//
// The rate leaves each sender idle gaps long enough for a speed probe even
// when the machine is slow: at 30 requests/s one run fit 64 probes instead
// of ~150, and its p95 read 15 ms where the runs around it read 11.
const (
	serveRate    = 20 // requests per second
	serveLimit   = 500 * time.Millisecond
	serveRel     = 1e-3
	serveMissPct = 1.0 // share of requests from unseen families, in %
)

// serveFamilies are the warmed dataset families (unmasked: the service
// takes no mask), all of one size. Each is tuned once in set-up; every
// tune=1 compress of them afterwards is a cache hit.
var serveFamilies = []datagen.SyntheticSpec{
	{Name: "fam-height", Dims: []int{24, 64, 64}, Lead: "height", Anisotropy: 2, Roughness: 0.6, NoiseAmp: 0.02},
	{Name: "fam-layer", Dims: []int{24, 64, 64}, Lead: "height", Anisotropy: 1, Roughness: 0.7, NoiseAmp: 0.03},
	{Name: "fam-rough", Dims: []int{24, 64, 64}, Lead: "height", Roughness: 1.2, NoiseAmp: 0.1},
}

// serveField is one request body with its expected outputs, computed with
// direct library calls in set-up.
type serveField struct {
	name  string
	ds    *cliz.Dataset
	abs   float64
	body  []byte // raw little-endian float32
	want  map[cliz.EntropyKind][]byte
	pipe  cliz.Pipeline
	dec   []float32 // direct decode of want[Huffman]
	query string
}

// request kinds of the traffic mix.
const (
	kindHit = iota
	kindHitRANS
	kindDecompress
	kindMiss
	numKinds
)

var kindNames = [numKinds]string{"compress", "compress-ransi", "decompress", "compress-miss"}

type serveReq struct {
	kind int
	f    *serveField
	warm bool // the request that first tunes f: a cache miss
}

type serveState struct {
	srv    *service.Server
	hs     *http.Server
	served chan struct{} // closed when the HTTP server's goroutine returns
	client *http.Client
	base   string
	fams   []*serveField
	misses []*serveField
	plan   []serveReq
	probe  *seekProbe
	conns  int
}

// close stops the HTTP server and waits for its goroutine.
func (st *serveState) close() {
	if st.hs == nil {
		return
	}
	st.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := st.hs.Shutdown(ctx); err != nil {
		_ = st.hs.Close() // connections still open after the timeout
	}
	<-st.served
}

// newServeField generates a family member and its request body. Unlike
// the other workloads' inputs, its values do not move with the seed: on
// these Synthetic families a seeded shift of 1e-4 of the range is enough
// to flip the tuner between near-tied pipelines (some with classification,
// which costs a different amount), so the work served would differ from
// seed to seed. The seed orders the traffic and places the misses.
func newServeField(spec datagen.SyntheticSpec) (*serveField, error) {
	d, err := datagen.Synthetic(spec)
	if err != nil {
		return nil, err
	}
	// Exactly the dataset the service assembles from a request, so a
	// direct call with it must give the served blob byte for byte.
	ds := &cliz.Dataset{Name: "request", Data: d.Data, Dims: d.Dims,
		Lead: cliz.LeadKind(d.Lead), Periodic: d.Periodic}
	f, err := newField(ds, serveRel)
	if err != nil {
		return nil, err
	}
	body := make([]byte, 4*len(d.Data))
	for i, v := range d.Data {
		binary.LittleEndian.PutUint32(body[4*i:], math.Float32bits(v))
	}
	dims := make([]string, len(d.Dims))
	for i, v := range d.Dims {
		dims[i] = strconv.Itoa(v)
	}
	q := fmt.Sprintf("dims=%s&rel=%g&lead=%s&tune=1", strings.Join(dims, "x"), serveRel, spec.Lead)
	return &serveField{name: spec.Name, ds: ds, abs: f.abs, body: body,
		want: map[cliz.EntropyKind][]byte{}, query: q}, nil
}

// expect computes the blobs the service must return for f under pipe.
func (f *serveField) expect(pipe cliz.Pipeline, kinds ...cliz.EntropyKind) error {
	f.pipe = pipe
	for _, k := range kinds {
		blob, _, err := cliz.Compress(f.ds, cliz.Rel(serveRel), &pipe, cliz.WithEntropy(k), cliz.WithWorkers(0))
		if err != nil {
			return err
		}
		f.want[k] = blob
	}
	dec, _, err := cliz.Decompress(f.want[cliz.EntropyHuffman])
	f.dec = dec
	return err
}

func setupServe(seed int64, n int, m *meter) (*serveState, error) {
	st := &serveState{conns: runtime.NumCPU()}
	if err := st.start(); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	for i, spec := range serveFamilies {
		spec.Seed = 100 + int64(i)
		f, err := newServeField(spec)
		if err != nil {
			return nil, err
		}
		pipe, _, err := cliz.AutoTune(f.ds, cliz.Rel(serveRel), &cliz.TuneOptions{Context: m.ctx()})
		if err != nil {
			return nil, err
		}
		if err := f.expect(pipe, cliz.EntropyHuffman, cliz.EntropyRANSInterleaved); err != nil {
			return nil, err
		}
		// Warm the service's cache: this request runs the server's own
		// AutoTune and must already agree with the direct call.
		if _, err := st.do(serveReq{kind: kindHit, f: f, warm: true}); err != nil {
			return nil, err
		}
		st.fams = append(st.fams, f)
	}

	nMiss := int(math.Round(float64(n) * serveMissPct / 100))
	missAt := map[int]bool{}
	for len(missAt) < nMiss {
		missAt[1+rng.Intn(n-1)] = true
	}
	for i := 0; i < nMiss; i++ {
		spec := serveFamilies[i%len(serveFamilies)]
		spec.Name = fmt.Sprintf("unseen-%d", i)
		spec.Seed = 150 + int64(i)
		spec.Offset = 500 * float64(i+1) // a distinct family signature
		f, err := newServeField(spec)
		if err != nil {
			return nil, err
		}
		f.query += "&estimate=1"
		pipe, _, err := cliz.AutoTune(f.ds, cliz.Rel(serveRel), &cliz.TuneOptions{EstimateFirst: true})
		if err != nil {
			return nil, err
		}
		if err := f.expect(pipe, cliz.EntropyHuffman); err != nil {
			return nil, err
		}
		st.misses = append(st.misses, f)
	}
	// The other requests cycle through every family and hit kind in equal
	// numbers, shuffled by the seed: every run sends the same mix, so the
	// seed moves the order of the traffic, not what it costs.
	hits := make([]serveReq, 0, n-nMiss)
	for len(hits) < n-nMiss {
		for _, k := range []int{kindHit, kindHitRANS, kindDecompress} {
			for _, f := range st.fams {
				hits = append(hits, serveReq{kind: k, f: f})
			}
		}
	}
	hits = hits[:n-nMiss]
	rng.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
	for i := 0; i < n; i++ {
		if missAt[i] {
			st.plan = append(st.plan, serveReq{kind: kindMiss, f: st.misses[0]})
			st.misses = append(st.misses[1:], st.misses[0])
			continue
		}
		st.plan = append(st.plan, hits[0])
		hits = hits[1:]
	}
	// Warm every request path and connection once, untimed.
	for _, f := range st.fams {
		for _, k := range []int{kindHit, kindHitRANS, kindDecompress} {
			if _, err := st.do(serveReq{kind: k, f: f}); err != nil {
				return nil, err
			}
		}
	}
	probe, err := newSeekProbe(seed)
	if err != nil {
		return nil, err
	}
	st.probe = probe
	ok = true
	return st, nil
}

// start runs an in-process clizd on a loopback port.
func (st *serveState) start() error {
	srv, err := service.NewServer(service.Config{Workers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.srv = srv
	st.hs = &http.Server{Handler: srv}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		_ = st.hs.Serve(ln) // returns ErrServerClosed once close() shuts it down
	}()
	st.base = "http://" + ln.Addr().String()
	st.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: st.conns, MaxIdleConnsPerHost: st.conns, DisableCompression: true,
	}}
	return nil
}

// response is what one request returned.
type response struct {
	status  int
	cache   string
	mode    string
	body    []byte
	bytesIn int
	rtt     time.Duration
}

// do sends one request and checks the answer.
func (st *serveState) do(r serveReq) (*response, error) {
	res, err := st.send(r)
	if err == nil {
		err = st.check(r, res)
	}
	return res, err
}

// send posts one request and returns as soon as the response body is
// read, so a timed request holds nothing of the benchmark's own checking.
func (st *serveState) send(r serveReq) (*response, error) {
	var url string
	var body []byte
	switch r.kind {
	case kindHit, kindMiss:
		url, body = st.base+"/v1/compress?"+r.f.query, r.f.body
	case kindHitRANS:
		url, body = st.base+"/v1/compress?"+r.f.query+"&entropy=rans-interleaved", r.f.body
	case kindDecompress:
		url, body = st.base+"/v1/decompress", r.f.want[cliz.EntropyHuffman]
	}
	t0 := time.Now()
	resp, err := st.client.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	res := &response{status: resp.StatusCode, cache: resp.Header.Get("X-Cliz-Cache"),
		mode: resp.Header.Get("X-Cliz-Tune-Mode"), body: out, bytesIn: len(body), rtt: time.Since(t0)}
	if err != nil {
		return res, err
	}
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("%s %s: status %d: %s", kindNames[r.kind], r.f.name, resp.StatusCode, bytes.TrimSpace(out))
	}
	return res, nil
}

// check compares a response with the output of direct library calls.
func (st *serveState) check(r serveReq, res *response) error {
	out := res.body
	switch r.kind {
	case kindHit, kindMiss, kindHitRANS:
		want := "hit"
		if r.warm || r.kind == kindMiss {
			want = "miss"
		}
		if res.cache != want {
			return fmt.Errorf("%s %s: cache %q, want %q", kindNames[r.kind], r.f.name, res.cache, want)
		}
		k := cliz.EntropyHuffman
		if r.kind == kindHitRANS {
			k = cliz.EntropyRANSInterleaved
		}
		if !bytes.Equal(out, r.f.want[k]) {
			return fmt.Errorf("%s %s: served blob differs from direct cliz.Compress", kindNames[r.kind], r.f.name)
		}
	case kindDecompress:
		if len(out) != 4*len(r.f.dec) {
			return fmt.Errorf("decompress %s: %d bytes, want %d", r.f.name, len(out), 4*len(r.f.dec))
		}
		dec := make([]float32, len(r.f.dec))
		for i := range dec {
			dec[i] = math.Float32frombits(binary.LittleEndian.Uint32(out[4*i:]))
		}
		if !equalFloats(dec, r.f.dec) {
			return fmt.Errorf("decompress %s: differs from direct cliz.Decompress", r.f.name)
		}
		if err := checkDecoded(r.f.ds.Data, dec, nil, r.f.abs, 0); err != nil {
			return fmt.Errorf("decompress %s: %w", r.f.name, err)
		}
	}
	return nil
}

// probeGap is the least time between two speed probes during the open
// loop: a probe takes about a hundredth of a second on one CPU, so this
// keeps the probes' load near a tenth of one CPU.
const probeGap = 100 * time.Millisecond

// probeLog records the speed probes taken in the senders' idle time.
type probeLog struct {
	// inflight counts requests on the wire; a probe starts only when it is
	// zero, so probes never compete with a request for the CPUs.
	inflight atomic.Int32
	mu       sync.Mutex
	probers  []*prober
	at       []time.Time
	took     []time.Duration
	lastAt   time.Time
}

// idle runs a probe on sender c's own prober when the sender has room for
// it and no probe ran in the last probeGap.
func (pl *probeLog) idle(c int, slack time.Duration) {
	pl.mu.Lock()
	last := time.Duration(0)
	if n := len(pl.took); n > 0 {
		last = pl.took[n-1]
	}
	if pl.inflight.Load() > 0 || time.Since(pl.lastAt) < probeGap || slack < last+5*time.Millisecond {
		pl.mu.Unlock()
		return
	}
	pl.lastAt = time.Now()
	pl.mu.Unlock()
	d := pl.probers[c].once()
	pl.mu.Lock()
	pl.at = append(pl.at, time.Now().Add(-d/2))
	pl.took = append(pl.took, d)
	pl.mu.Unlock()
}

// factor is the scale for a span centred at t: refProbe over the median of
// the probeWindow probes nearest to t.
func (pl *probeLog) factor(t time.Time) float64 {
	i := sort.Search(len(pl.at), func(i int) bool { return pl.at[i].After(t) })
	lo := max(0, min(i-probeWindow/2, len(pl.at)-probeWindow))
	hi := min(len(pl.at), lo+probeWindow)
	xs := make([]float64, 0, probeWindow)
	for _, d := range pl.took[lo:hi] {
		xs = append(xs, float64(d))
	}
	return float64(refProbe) / median(xs)
}

// runServe is the serve workload: a seeded request mix against an
// in-process clizd at a fixed rate, at most nproc client connections.
func runServe(o options) (*report, error) {
	rep := newReport()
	n := int(math.Ceil(serveRate * o.seconds))
	if n < 200 {
		n = 200 // p95 needs at least ten requests beyond it
	}
	st, setupS, err := timeSetup(2, func(m *meter) (*serveState, error) {
		return setupServe(o.seed, n, m)
	}, (*serveState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	rep.e2e["setup_s"] = setupS
	if st.conns > runtime.NumCPU() {
		return nil, fmt.Errorf("%d load-generator connections > nproc %d", st.conns, runtime.NumCPU())
	}
	rep.meta["loadgen_goroutines"] = st.conns
	rep.meta["loadgen_connections"] = st.conns
	rep.meta["offered_rate_rps"] = serveRate
	rep.meta["latency_limit_ms"] = ms(serveLimit)
	rep.meta["requests"] = n

	// The queue-depth sampler runs only in the traced run.
	var depthMax int
	stopSampler := func() {}
	if o.trace {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					depthMax = max(depthMax, st.srv.QueueDepth())
				}
			}
		}()
		stopSampler = func() { close(stop); wg.Wait() }
	}

	pl := &probeLog{}
	for c := 0; c < st.conns; c++ {
		pl.probers = append(pl.probers, newProber())
	}
	pl.idle(0, time.Second) // one probe before the first request
	resps := make([]*response, n)
	runtime.GC() // set-up's garbage is not the timed phase's to collect
	rt0 := readRuntime()
	samples := openLoop(n, time.Second/serveRate, st.conns, func(i int) error {
		pl.inflight.Add(1)
		defer pl.inflight.Add(-1)
		res, err := st.send(st.plan[i])
		resps[i] = res
		return err
	}, pl.idle)
	rt1 := readRuntime()
	stopSampler()
	// The outputs are checked once the loop is over; a failed check fails
	// its request.
	for i, s := range samples {
		if s.err == nil {
			samples[i].err = st.check(st.plan[i], resps[i])
		}
	}
	pl.lastAt = time.Time{}
	pl.idle(0, time.Second) // and one after the last
	runtimeMetrics(rep, rt0, rt1, n)

	var lat, late []float64
	var good, hits, tuned, rejected, misses, estimated int
	var speed float64 // mean scale factor over the requests
	type kf struct {
		kind int
		f    *serveField
	}
	// Round trips per request kind and family, scaled: the rates take each
	// one's median, so a few slow requests do not move them. Misses are
	// left out: each unseen family is asked once, and its time is mostly
	// the estimator's.
	rtts := map[kf][]float64{}
	// Latencies from the due time, per request kind and family, misses
	// apart as above.
	unitLat := map[kf][]float64{}
	// ratio counts each distinct compress request once, so the seeded
	// traffic mix does not move it.
	sizes := map[kf][2]float64{}
	first, last := samples[0].due, samples[0].done
	for i, s := range samples {
		r, res := st.plan[i], resps[i]
		f := pl.factor(s.sent.Add(s.done.Sub(s.sent) / 2))
		speed += f / float64(len(samples))
		l := s.latency()
		lat = append(lat, ms(l)*f)
		if r.kind != kindMiss {
			unitLat[kf{r.kind, r.f}] = append(unitLat[kf{r.kind, r.f}], ms(l)*f)
		}
		late = append(late, ms(s.late()))
		if s.done.After(last) {
			last = s.done
		}
		if res != nil && res.status == http.StatusTooManyRequests {
			rejected++
		}
		if s.err != nil {
			rep.op(fmt.Errorf("request %d: %w", i, s.err))
			continue
		}
		if l > serveLimit {
			rep.late(fmt.Sprintf("request %d %s: latency %v over the %v limit", i, kindNames[r.kind], l, serveLimit))
			continue
		}
		rep.op(nil)
		good++
		switch r.kind {
		case kindHit, kindHitRANS, kindMiss:
			tuned++
			if res.cache == "hit" {
				hits++
			}
			sizes[kf{r.kind, r.f}] = [2]float64{float64(res.bytesIn), float64(len(res.body))}
			if r.kind == kindMiss {
				misses++
				if res.mode == "estimate" {
					estimated++
				}
			} else {
				rtts[kf{r.kind, r.f}] = append(rtts[kf{r.kind, r.f}], secs(res.rtt)*f)
			}
		case kindDecompress:
			rtts[kf{r.kind, r.f}] = append(rtts[kf{r.kind, r.f}], secs(res.rtt)*f)
		}
	}
	// Percentiles over the request kinds and families of each one's median
	// latency. Per request, the slowest few percent belong to the shared
	// machine: over ten runs, the pooled p95 read 11 ms while it was quiet
	// and 15–16 ms while it was busy, a spread of 30%, where the pooled
	// p50's was 2%. The pooled figures stay in the meta line.
	var unitMed []float64
	for _, ls := range unitLat {
		unitMed = append(unitMed, median(ls))
	}
	rep.e2e["latency_p50_ms"] = percentile(unitMed, 50)
	rep.e2e["latency_p95_ms"] = percentile(unitMed, 95)
	rep.e2e["throughput_rps"] = float64(good) / last.Sub(first).Seconds()
	var compMB, compS, decMB, decS float64
	for k, ts := range rtts {
		mb := float64(len(k.f.body)) / 1e6 // request or response floats
		if k.kind == kindDecompress {
			decMB += mb
			decS += median(ts)
		} else {
			compMB += mb
			compS += median(ts)
		}
	}
	rep.e2e["compress_mb_s"] = compMB / compS
	rep.e2e["decompress_mb_s"] = decMB / decS
	var inB, outB float64
	for _, sz := range sizes {
		inB += sz[0]
		outB += sz[1]
	}
	rep.e2e["ratio"] = inB / outB
	m := newMeter()
	fields := make([]*field, len(st.fams))
	for i, f := range st.fams {
		fields[i] = &field{name: f.name, rel: serveRel, ds: f.ds}
	}
	// The open loop leaves no room for other calls, so the other end-to-end
	// metrics are probed after it, in a few passes.
	side := &sideProbes{est: fields, seek: st.probe, tuneN: 1, estN: 4, seekN: 36,
		rng: rand.New(rand.NewSource(o.seed))}
	for i, f := range st.fams {
		side.tune = append(side.tune, tuneTarget{fields[i], f.pipe.String()})
	}
	for i := 0; i < 7; i++ {
		side.pass(rep, m)
	}
	side.finish(rep)
	rep.meta["samples_latency"] = len(lat)
	q1, q3 := quartiles(lat)
	rep.meta["latency_quartiles_ms"] = []float64{q1, q3}
	rep.meta["pooled_latency_p50_ms"] = percentile(lat, 50)
	rep.meta["pooled_latency_p95_ms"] = percentile(lat, 95)
	rep.meta["misses"] = misses
	rep.meta["miss_shadow_frac"] = missShadow(st.plan, samples)
	rep.meta["speed_probes"] = len(pl.took)
	rep.meta["speed"] = speed
	rep.meta["raw_latency_p50_ms"] = percentile(rawLatencies(samples), 50)

	if o.trace {
		l := rep.layer
		l["service.cache_hit_frac"] = float64(hits) / float64(max(tuned, 1))
		l["service.queue_depth_max"] = float64(depthMax)
		l["service.rejected_frac"] = float64(rejected) / float64(n)
		l["loadgen.late_p95_ms"] = percentile(late, 95)
		l["estimate.accept_frac"] = float64(estimated) / float64(max(misses, 1))
		if err := st.checkMetrics(rep, rejected); err != nil {
			return nil, err
		}
		acc := &layerAcc{}
		l["service.overhead_ms"] = st.replay(rep, acc, samples, resps)
		if err := acc.finish(rep); err != nil {
			return nil, err
		}
		zeroLayers(rep)
	}
	return rep, nil
}

func rawLatencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.latency())
	}
	return out
}

// checkMetrics reads the service's own /metrics and checks its rejection
// counter against what the clients saw.
func (st *serveState) checkMetrics(rep *report, rejected int) error {
	resp, err := st.client.Get(st.base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	total := 0.0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "cliz_rejected_total") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return fmt.Errorf("/metrics: %q: %w", line, err)
		}
		total += v
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if int(total) != rejected {
		rep.op(fmt.Errorf("/metrics counts %g rejections, clients saw %d", total, rejected))
	} else {
		rep.op(nil)
	}
	return nil
}

// replay measures, after the loop, each distinct request kind made
// directly against the library (for service.overhead_ms) and replays its
// layer kernels. It returns the mean served-minus-direct time per request.
func (st *serveState) replay(rep *report, acc *layerAcc, samples []sample, resps []*response) float64 {
	type key struct {
		kind int
		f    *serveField
	}
	direct := map[key]float64{}
	for i, r := range st.plan {
		k := key{r.kind, r.f}
		if _, ok := direct[k]; ok || resps[i] == nil || samples[i].err != nil {
			continue
		}
		kind := cliz.EntropyHuffman
		if r.kind == kindHitRANS {
			kind = cliz.EntropyRANSInterleaved
		}
		var walls, decWalls []float64
		var blob []byte
		var dec []float32
		for j := 0; j < 3; j++ {
			var err error
			t0 := time.Now()
			switch r.kind {
			case kindDecompress:
				_, _, err = cliz.Decompress(r.f.want[kind], cliz.WithWorkers(0))
			case kindMiss:
				var pipe cliz.Pipeline
				pipe, _, err = cliz.AutoTune(r.f.ds, cliz.Rel(serveRel), &cliz.TuneOptions{EstimateFirst: true})
				if err == nil {
					_, _, err = cliz.Compress(r.f.ds, cliz.Rel(serveRel), &pipe, cliz.WithWorkers(0))
				}
			default:
				blob, _, err = cliz.Compress(r.f.ds, cliz.Rel(serveRel), &r.f.pipe, cliz.WithEntropy(kind), cliz.WithWorkers(0))
				if err == nil {
					t1 := time.Now()
					dec, _, err = cliz.Decompress(blob, cliz.WithWorkers(0))
					decWalls = append(decWalls, ms(time.Since(t1)))
					t0 = t0.Add(time.Since(t1)) // the direct call is the compress alone
				}
			}
			walls = append(walls, ms(time.Since(t0)))
			rep.op(wrap(fmt.Sprintf("direct %s %s", kindNames[r.kind], r.f.name), err))
		}
		direct[k] = median(walls)
		if blob != nil && dec != nil {
			rep.op(wrap("replay "+r.f.name, acc.replayOp(op{ds: r.f.ds, blob: blob, kind: kind,
				encWall: time.Duration(direct[k] * 1e6), decWall: time.Duration(median(decWalls) * 1e6), decoded: dec})))
		}
	}
	var sum float64
	var cnt int
	for i, r := range st.plan {
		d, ok := direct[key{r.kind, r.f}]
		if !ok || samples[i].err != nil {
			continue
		}
		sum += ms(resps[i].rtt) - d
		cnt++
	}
	if cnt == 0 {
		return math.NaN()
	}
	return sum / float64(cnt)
}

// missShadow is the share of requests that were misses or ran while a miss
// was in flight.
func missShadow(plan []serveReq, samples []sample) float64 {
	n := 0
	for i, s := range samples {
		for j, m := range samples {
			if plan[j].kind == kindMiss && (i == j || s.sent.Before(m.done) && m.sent.Before(s.done)) {
				n++
				break
			}
		}
	}
	return float64(n) / float64(len(samples))
}
