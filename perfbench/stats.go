package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile before the
// benchmark reports it: a p99 from 200 samples is the second-largest value,
// which says more about luck than about the system.
const minBeyond = 10

// quantile returns the q-quantile of sorted (linear interpolation between
// closest ranks). sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// tailSupported reports whether n samples leave at least minBeyond samples
// beyond the q-quantile.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// tailQuantiles are the tail percentiles the benchmark may report, highest
// first.
var tailQuantiles = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// highestTail returns the highest tail quantile n samples support, or 0 when
// even the median has fewer than minBeyond samples beyond it.
func highestTail(n int) float64 {
	for _, q := range tailQuantiles {
		if tailSupported(n, q) {
			return q
		}
	}
	return 0
}

// sample is a set of measurements of one quantity (milliseconds, counts, …).
type sample struct {
	vals   []float64
	sorted bool
}

func (s *sample) add(v float64) { s.vals = append(s.vals, v); s.sorted = false }

func (s *sample) addDur(d time.Duration) { s.add(float64(d) / float64(time.Millisecond)) }

func (s *sample) n() int { return len(s.vals) }

func (s *sample) sort() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// q returns the q-quantile, or NaN for an empty sample.
func (s *sample) q(q float64) float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.sort()
	return quantile(s.vals, q)
}

// tail returns the q-quantile only when enough samples lie beyond it.
func (s *sample) tail(q float64) (float64, bool) {
	if !tailSupported(len(s.vals), q) {
		return math.NaN(), false
	}
	return s.q(q), true
}

func (s *sample) median() float64 { return s.q(0.5) }

// backlogGrew reports whether an open-loop step fell behind: points are
// (seconds since step start, requests due but not yet answered), sampled
// through the step. The least-squares slope, extrapolated over the step,
// must not add more than a quarter second of arrivals (and at least five
// requests) — a system keeping up shows a flat, noisy backlog; one past
// capacity shows a line rising at (rate − capacity).
func backlogGrew(ts, backlog []float64, rate float64) bool {
	n := float64(len(ts))
	if len(ts) < 3 {
		return false
	}
	var sx, sy, sxx, sxy float64
	for i := range ts {
		sx += ts[i]
		sy += backlog[i]
		sxx += ts[i] * ts[i]
		sxy += ts[i] * backlog[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return false
	}
	slope := (n*sxy - sx*sy) / den
	span := ts[len(ts)-1] - ts[0]
	return slope*span > math.Max(rate*0.25, 5)
}

// stepResult is one open-loop ladder step's outcome.
type stepResult struct {
	rate    float64 // offered requests per second
	tail    float64 // the gated latency at tailQ, ms
	tailQ   float64 // which quantile tail is (0 = too few samples)
	failed  int     // failed or refused requests
	backlog bool    // the backlog grew through the step
	nominal bool
}

// passes reports whether the step meets limitMS: a tail the sample supports,
// at or under the limit, no failures and no growing backlog.
func (r stepResult) passes(limitMS float64) bool {
	return r.tailQ > 0 && r.tail <= limitMS && r.failed == 0 && !r.backlog
}

// goodput is the highest offered rate among the steps that pass, or 0.
func goodput(steps []stepResult, limitMS float64) float64 {
	best := 0.0
	for _, s := range steps {
		if s.passes(limitMS) && s.rate > best {
			best = s.rate
		}
	}
	return best
}
