package main

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// arrivalOffsets returns n arrival times, as offsets from the step start, of
// a Poisson process at rate per second conditioned on n arrivals: n uniform
// draws over [0, n/rate) seconds, sorted. Fixing the count keeps every
// seed's sample sizes, and so the tail percentiles they support, identical.
func arrivalOffsets(rng *rand.Rand, n int, rate float64) []time.Duration {
	span := float64(n) / rate
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * span * float64(time.Second))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// evenOffsets returns n arrivals at a fixed rate, each shifted by a seeded
// uniform jitter of up to ±jitter of the period.
func evenOffsets(rng *rand.Rand, n int, rate, jitter float64) []time.Duration {
	period := float64(time.Second) / rate
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(period * (float64(i) + 0.5 + jitter*(2*rng.Float64()-1)))
	}
	return out
}

// loadStats is what an open-loop run observed about itself.
type loadStats struct {
	start, end time.Time // first due time, and when the last arrival was answered
	late       sample    // how late the generator dispatched each arrival, ms
	ts         []float64 // backlog sample times, seconds since start
	backlog    []float64 // arrivals due but not answered at each sample time
}

// openLoop runs a precomputed schedule: a dispatcher hands each arrival to
// a pool of senders at its due time, whether or not earlier ones were
// answered. do receives the arrival index and its due time, and times the
// request from the due time, so a stall delays every request behind it. The
// function returns once every arrival has been answered.
func openLoop(offsets []time.Duration, senders int, do func(i int, due time.Time)) *loadStats {
	st := &loadStats{}
	// Buffered to the whole schedule so the dispatcher never blocks: its
	// lateness then measures only the generator, and senders that fall
	// behind show up as backlog instead.
	queue := make(chan int, len(offsets))
	var done atomic.Int64
	start := time.Now().Add(5 * time.Millisecond)
	st.start = start
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				do(i, start.Add(offsets[i]))
				done.Add(1)
			}
		}()
	}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				el := now.Sub(start)
				due := sort.Search(len(offsets), func(i int) bool { return offsets[i] > el })
				st.ts = append(st.ts, el.Seconds())
				st.backlog = append(st.backlog, float64(due)-float64(done.Load()))
			}
		}
	}()
	for i, off := range offsets {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		st.late.addDur(time.Since(due))
		queue <- i
	}
	close(queue)
	// Backlog is sampled only while arrivals are still due; the drain after
	// the last arrival says nothing about whether the rate was sustainable.
	close(stop)
	<-sampled
	wg.Wait()
	st.end = time.Now()
	return st
}
