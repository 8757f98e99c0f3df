package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// openLoop sends len(due) requests, request x no earlier than due[x]
// after the start, from senders goroutines; send(sd, x) performs request
// x on sender sd. It returns the start, each request's send offset, and
// each request's latency origin:
//
//   - due[x] when every sender was still busy at due[x]: the request
//     queued behind earlier ones, and that wait is the system's, so a
//     stall counts against every request queued behind it;
//   - the send offset when a sender was free and slept until due[x]: any
//     lateness is the sleep overshooting (about 0.1-1 ms on a typical
//     box), the generator's error rather than the system's, and is
//     reported as generator lag instead.
func openLoop(due []time.Duration, senders int, send func(sd, x int)) (start time.Time, sent, origin []time.Duration) {
	sent = make([]time.Duration, len(due))
	origin = make([]time.Duration, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	start = time.Now()
	for sd := 0; sd < senders; sd++ {
		wg.Add(1)
		go func(sd int) {
			defer wg.Done()
			for {
				x := int(next.Add(1) - 1)
				if x >= len(due) {
					return
				}
				free := time.Since(start)
				if wait := due[x] - free; wait > 0 {
					time.Sleep(wait)
				}
				sent[x] = time.Since(start)
				origin[x] = sent[x]
				if free >= due[x] {
					origin[x] = due[x]
				}
				send(sd, x)
			}
		}(sd)
	}
	wg.Wait()
	return start, sent, origin
}

// genLagMs is the generator's p99 send lateness in milliseconds.
func genLagMs(due, sent []time.Duration) float64 {
	lags := make([]time.Duration, len(due))
	for x := range due {
		lags[x] = sent[x] - due[x]
	}
	return quantileMs(lags, 0.99)
}

// genBehind reports a run whose generator fell behind its schedule: its
// p99 send lateness exceeds the latency limit, so the offered rate was
// not the configured one and the run's latencies are not valid.
func genBehind(lagMs float64, limit time.Duration) bool {
	return lagMs > float64(limit)/float64(time.Millisecond)
}
