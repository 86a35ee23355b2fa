package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{199, 0.95, false},
		{200, 0.95, true},
		{99, 0.90, false},
		{100, 0.90, true},
		{39, 0.75, false},
		{40, 0.75, true},
		{19, 0.50, false},
		{20, 0.50, true},
	}
	for _, c := range cases {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
		var s sample
		for i := 0; i < c.n; i++ {
			s.add(float64(i))
		}
		if _, ok := s.tail(c.q); ok != c.want {
			t.Errorf("sample of %d: tail(%v) ok = %v, want %v", c.n, c.q, ok, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5000, 0.99}, {1000, 0.99}, {999, 0.95}, {250, 0.95}, {150, 0.90}, {60, 0.75}, {25, 0.50}, {19, 0}} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := sample{}
	for _, v := range []float64{4, 1, 3, 2, 5} {
		s.add(v)
	}
	if got := s.median(); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := s.q(0.25); got != 2 {
		t.Errorf("q(0.25) = %v, want 2", got)
	}
	if got := s.q(0.9); math.Abs(got-4.6) > 1e-9 {
		t.Errorf("q(0.9) = %v, want 4.6", got)
	}
	var empty sample
	if !math.IsNaN(empty.median()) {
		t.Errorf("empty median is not NaN")
	}
}

// backlogSeries simulates an open-loop step: arrivals at rate, service at
// capacity, sampled every 100ms with Poisson-like jitter on the backlog.
func backlogSeries(rate, capacity, seconds float64, seed int64) (ts, backlog []float64) {
	rng := rand.New(rand.NewSource(seed))
	q := 0.0
	for t := 0.1; t <= seconds; t += 0.1 {
		q += rate*0.1 - capacity*0.1
		if q < 0 {
			q = 0
		}
		ts = append(ts, t)
		backlog = append(backlog, math.Max(0, q+float64(rng.Intn(3))))
	}
	return ts, backlog
}

func TestBacklogGrowth(t *testing.T) {
	ts, b := backlogSeries(80, 200, 10, 1)
	if backlogGrew(ts, b, 80) {
		t.Errorf("a step under capacity reported a growing backlog")
	}
	ts, b = backlogSeries(240, 200, 3, 2)
	if !backlogGrew(ts, b, 240) {
		t.Errorf("a step 20%% over capacity did not report a growing backlog")
	}
	// A brief burst that drains again is not growth.
	ts = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	b = []float64{0, 1, 8, 12, 6, 2, 1, 0, 1, 0}
	if backlogGrew(ts, b, 120) {
		t.Errorf("a drained burst reported as growth")
	}
	if backlogGrew(ts[:2], b[:2], 120) {
		t.Errorf("two samples are not enough to call growth")
	}
}

func TestGoodputPicksHighestPassingStep(t *testing.T) {
	steps := []stepResult{
		{rate: 40, tail: 14, tailQ: 0.95},
		{rate: 80, tail: 28, tailQ: 0.99, nominal: true},
		{rate: 120, tail: 45, tailQ: 0.95},
		{rate: 240, tail: 400, tailQ: 0.95, backlog: true},
	}
	if got := goodput(steps, 50); got != 120 {
		t.Errorf("goodput = %v, want 120", got)
	}
	steps[2].failed = 1 // a failed request misses the limit
	if got := goodput(steps, 50); got != 80 {
		t.Errorf("goodput with a failure at 120 = %v, want 80", got)
	}
	steps[3] = stepResult{rate: 240, tail: 30, tailQ: 0.95, backlog: true}
	if got := goodput(steps, 50); got != 80 {
		t.Errorf("a step whose backlog grew counted toward goodput: %v", got)
	}
	steps[1].tailQ = 0 // too few samples to judge the tail
	if got := goodput(steps, 50); got != 40 {
		t.Errorf("a step without a supported tail counted: %v", got)
	}
	if got := goodput(nil, 50); got != 0 {
		t.Errorf("goodput of no steps = %v", got)
	}
}

func TestSelfTimeOnSyntheticTree(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := newTracer()
	// root [0,100] ─┬─ a [10,40] ── a1 [20,30]
	//               ├─ b [30,60]   (overlaps a by 10ms)
	//               └─ c [90,120]  (runs past the root's end)
	root := tr.newID()
	a := tr.add(root, root, "a", at(10), at(40))
	tr.add(root, a, "a1", at(20), at(30))
	tr.add(root, root, "b", at(30), at(60))
	tr.add(root, root, "c", at(90), at(120))
	tr.put(span{ID: root, Trace: root, Name: "op.x", Start: at(0), End: at(100)})
	self := selfTimes(tr.spans)
	byName := map[string]time.Duration{}
	for _, s := range tr.spans {
		byName[s.Name] = self[s.ID]
	}
	want := map[string]time.Duration{
		"op.x": 40 * time.Millisecond, // 100 − [10,60] − [90,100]
		"a":    20 * time.Millisecond,
		"a1":   10 * time.Millisecond,
		"b":    30 * time.Millisecond,
		"c":    30 * time.Millisecond,
	}
	for name, w := range want {
		if byName[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, byName[name], w)
		}
	}
}

func TestChainTilesTheRoot(t *testing.T) {
	t0 := time.Unix(2000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := newTracer()
	// The second stamp precedes the first: its segment clamps to zero.
	tr.chain(7, "op.visible", at(0), []string{"q", "early", "run"}, []time.Time{at(5), at(3), at(50)})
	bs := decompose(tr.spans)
	if len(bs) != 1 || bs[0].Op != "visible" || bs[0].Count != 1 {
		t.Fatalf("decompose = %+v", bs)
	}
	b := bs[0]
	if b.MedianMS != 50 || b.SumMS != 50 {
		t.Errorf("median %v, self sum %v; want both 50", b.MedianMS, b.SumMS)
	}
	if b.SelfMS["q"] != 5 || b.SelfMS["early"] != 0 || b.SelfMS["run"] != 45 || b.SelfMS["op.visible"] != 0 {
		t.Errorf("self times %v", b.SelfMS)
	}
}

func TestDecomposeAveragesTheMedianBand(t *testing.T) {
	t0 := time.Unix(3000, 0)
	tr := newTracer()
	// Ten ops of 10..100ms split evenly into two layers; the band is the
	// middle fifth (50 and 60ms), so each layer averages 27.5ms.
	for i := 1; i <= 10; i++ {
		d := time.Duration(i*10) * time.Millisecond
		tr.chain(uint64(i), "op.y", t0, []string{"l1", "l2"}, []time.Time{t0.Add(d / 2), t0.Add(d)})
	}
	b := decompose(tr.spans)[0]
	if b.Count != 10 || b.MedianMS != 55 {
		t.Errorf("count %d median %v", b.Count, b.MedianMS)
	}
	if math.Abs(b.SelfMS["l1"]-27.5) > 1e-9 || math.Abs(b.SelfMS["l2"]-27.5) > 1e-9 {
		t.Errorf("band self times %v", b.SelfMS)
	}
}

func TestArrivalOffsetsAreSeededAndSorted(t *testing.T) {
	a := arrivalOffsets(rand.New(rand.NewSource(5)), 500, 100)
	b := arrivalOffsets(rand.New(rand.NewSource(5)), 500, 100)
	if len(a) != 500 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule not sorted at %d", i)
		}
		if a[i] >= 5*time.Second {
			t.Fatalf("arrival %v past the step's %v", a[i], 5*time.Second)
		}
	}
}

func TestEvenOffsetsStayInTheirSlot(t *testing.T) {
	off := evenOffsets(rand.New(rand.NewSource(3)), 50, 2, 0.05)
	for i, o := range off {
		lo := time.Duration((float64(i) + 0.45) * 0.5 * float64(time.Second))
		hi := time.Duration((float64(i) + 0.55) * 0.5 * float64(time.Second))
		if o < lo || o > hi {
			t.Fatalf("arrival %d at %v outside [%v, %v]", i, o, lo, hi)
		}
	}
}

// The metrics the benchmark prints must be exactly the ones BENCHMARK.json
// declares, in both modes and in its order.
func TestDeclaredMetricsMatchManifest(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no manifest beside the benchmark: %v", err)
	}
	var man struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind     string
		declared []struct{ Name string }
		code     []string
	}{{"end_to_end", man.EndToEnd, endToEnd}, {"per_layer", man.PerLayer, perLayer}} {
		var names []string
		for _, m := range c.declared {
			names = append(names, m.Name)
		}
		if !slices.Equal(names, c.code) {
			t.Errorf("%s: manifest %v, code %v", c.kind, names, c.code)
		}
	}
}

func TestResultRequiresEveryDeclaredMetric(t *testing.T) {
	r := newReport()
	r.attempt("op", 1)
	r.set("a", 1, "ms")
	r.set("extra", 2, "ms")
	res, extra, err := r.result([]string{"a"})
	if err != nil || len(res.Metrics) != 1 || len(extra) != 1 || !res.Correct {
		t.Fatalf("result %+v, extra %v, err %v", res, extra, err)
	}
	if _, _, err := r.result([]string{"a", "b"}); err == nil {
		t.Fatal("a missing declared metric must be an error")
	}
}
