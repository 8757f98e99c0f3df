package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"metricprox/internal/metric"
)

// costModel is the paper's completion-time model at the 1 ms oracle the
// ROADMAP and the figures use: completion = time + calls × 1 ms.
var costModel = metric.CostModel{PerCall: time.Millisecond}

// clients is the closed-loop client count and the open loop's sender and
// connection cap: one per CPU.
var clients = runtime.NumCPU()

// phase is what one measured window produced.
type phase struct {
	lat    []time.Duration // latency of every attempted op, failed ones included
	failed int64
	// good counts ops that succeeded within the workload's latency limit.
	good int64
	// opsPerSec is the completed-op rate; goodPerSec the rate of good ops.
	opsPerSec, goodPerSec float64
	// callsPerOp and roundTripsPerOp are exact counts per op.
	callsPerOp, roundTripsPerOp float64
	cpu                         time.Duration
	wall                        time.Duration
	// rssMB is the process's peak resident set when the window closed,
	// before any output checks ran.
	rssMB float64
	// ledgerErr is set when the call ledger did not reconcile.
	ledgerErr error
}

func (p *phase) ops() int64 { return int64(len(p.lat)) }

// quantileMs returns the q-quantile of ds in milliseconds (nearest rank).
func quantileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	k = min(max(k, 0), len(s)-1)
	return float64(s[k]) / float64(time.Millisecond)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// closedLoopRate returns Σ ops/busy over the clients of a closed loop: each
// client's rate is its op count over the time it spent in ops, so the
// rate does not jump by a whole op when the window edge moves.
func closedLoopRate(perClient [][]time.Duration) float64 {
	rate := 0.0
	for _, lat := range perClient {
		var sum time.Duration
		for _, d := range lat {
			sum += d
		}
		if sum > 0 {
			rate += float64(len(lat)) / sum.Seconds()
		}
	}
	return rate
}

// cpuTime returns the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// log2Landmarks is the landmark count the daemon defaults to, ⌊log2 n⌋.
func log2Landmarks(n int) int {
	k := 0
	for v := n; v > 1; v /= 2 {
		k++
	}
	return k
}

// seedStream returns the i-th derived seed of seed, for inputs a run
// generates one per op.
func seedStream(seed int64, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x >> 1)
}
