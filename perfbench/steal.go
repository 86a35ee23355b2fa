package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a virtual machine the hypervisor may run other guests on this guest's
// vCPUs ("steal"). On a shared box steal comes and goes on ten-second
// scales and can take a third of the CPU, which makes wall-clock timings
// measure the neighbours. The steal clock samples the kernel's CPU
// accounting in the background so that every timing can also be reported
// net of steal: wall × (1 − s), where s is the share of the time the vCPUs
// wanted to run that the hypervisor took, over the timed interval (widened
// to at least stealWindow so the 10 ms accounting ticks average out).

const (
	stealPeriod = 100 * time.Millisecond
	stealWindow = time.Second
)

// cpuCounters reads the aggregate "cpu" line of /proc/stat: ticks the
// vCPUs ran (user, nice, system, irq, softirq) and ticks stolen.
func cpuCounters() (busy, steal float64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	v := make([]float64, 8)
	for i := range v {
		x, err := strconv.ParseFloat(fields[i+1], 64)
		if err != nil {
			return 0, 0, false
		}
		v[i] = x
	}
	// user nice system idle iowait irq softirq steal
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], true
}

type stealSample struct {
	at          time.Time
	busy, steal float64
}

// stealClock records cpuCounters every stealPeriod until closed. Without
// /proc/stat every share is 0 and net times equal wall times.
type stealClock struct {
	mu      sync.Mutex
	samples []stealSample
	stop    chan struct{}
	done    chan struct{}
}

func startStealClock() *stealClock {
	c := &stealClock{stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		t := time.NewTicker(stealPeriod)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *stealClock) sample() {
	busy, steal, ok := cpuCounters()
	if !ok {
		return
	}
	c.mu.Lock()
	c.samples = append(c.samples, stealSample{time.Now(), busy, steal})
	c.mu.Unlock()
}

// close stops the sampler and waits for it to exit.
func (c *stealClock) close() {
	close(c.stop)
	<-c.done
}

// at interpolates the counters at t (clamped to the sampled range).
func (c *stealClock) at(t time.Time) (busy, steal float64) {
	s := c.samples
	i := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(t) })
	switch {
	case i == 0:
		return s[0].busy, s[0].steal
	case i == len(s):
		return s[len(s)-1].busy, s[len(s)-1].steal
	}
	a, b := s[i-1], s[i]
	f := float64(t.Sub(a.at)) / float64(b.at.Sub(a.at))
	return a.busy + f*(b.busy-a.busy), a.steal + f*(b.steal-a.steal)
}

// share returns the stolen share of runnable vCPU time over [t0, t1],
// widened symmetrically to at least stealWindow.
func (c *stealClock) share(t0, t1 time.Time) float64 {
	if c == nil {
		return 0
	}
	if d := t1.Sub(t0); d < stealWindow {
		pad := (stealWindow - d) / 2
		t0, t1 = t0.Add(-pad), t1.Add(pad)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.samples) < 2 {
		return 0
	}
	b0, s0 := c.at(t0)
	b1, s1 := c.at(t1)
	db, ds := b1-b0, s1-s0
	if db+ds <= 0 || ds < 0 {
		return 0
	}
	return ds / (db + ds)
}

// net returns the interval's length net of steal.
func (c *stealClock) net(t0, t1 time.Time) time.Duration {
	return time.Duration(float64(t1.Sub(t0)) * (1 - c.share(t0, t1)))
}

// timing is one timed operation's interval.
type timing struct{ start, end time.Time }

// wallSample returns the operations' wall durations, in ms.
func wallSample(ts []timing) *sample {
	s := &sample{}
	for _, t := range ts {
		s.addDur(t.end.Sub(t.start))
	}
	return s
}

// netSample returns the operations' durations net of steal, in ms.
func (c *stealClock) netSample(ts []timing) *sample {
	s := &sample{}
	for _, t := range ts {
		s.addDur(c.net(t.start, t.end))
	}
	return s
}
