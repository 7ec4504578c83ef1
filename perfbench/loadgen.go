package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sample is the timing of one open-loop request.
type sample struct {
	due, sent, done time.Time
	err             error
}

// latency is measured from the due time, so a stall also delays — and is
// charged to — every request queued behind it.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// late is how far behind schedule the generator sent the request.
func (s sample) late() time.Duration { return s.sent.Sub(s.due) }

// openLoop issues n requests on a fixed schedule, request i due at
// start + i·interval, regardless of how earlier ones fare. conns sender
// goroutines (one client connection each) take requests in order; a
// request whose sender is still busy waits, and that wait counts in its
// latency. A sender with time to spare before its next request calls idle
// (if not nil) with its index and the slack; idle must return well within
// it. openLoop returns once every request has completed.
func openLoop(n int, interval time.Duration, conns int, do func(i int) error, idle func(c int, slack time.Duration)) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	start := time.Now().Add(interval)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 && idle != nil {
					idle(c, d)
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				s := sample{due: due, sent: time.Now()}
				s.err = do(i)
				s.done = time.Now()
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}
