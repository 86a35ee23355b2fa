package main

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"cspm/internal/completion"
	"cspm/internal/graph"
	"cspm/internal/serve"
	"cspm/internal/serveclient"
)

const (
	benchNS = "bench"
	// completeLimitMS is the latency limit a ladder step's completion tail
	// must meet to count toward read_goodput_rps.
	completeLimitMS = 100
	completeShare   = 0.8 // the rest are pattern pages
	pageSize        = 100
	topK            = 10
	verticesPerReq  = 4
	checkShare      = 0.1 // completion responses checked against the in-process scorer
)

// ladder is the serve-read arrival-rate ladder (requests per second). The
// rates are absolute, not fractions of measured capacity. nominalStep is the
// step the gated latencies come from: about a quarter of the reference
// box's CPU (2 vCPUs), low enough that the ±20% swings in CPU a shared box
// shows on ten-second scales move service time, not queueing. The top step
// is past that box's capacity, so it fails on backlog in every run.
var ladder = []float64{20, 40, 80, 240}

const nominalStep = 1

// gatedTailQ is the tail the gated latencies report. With nproc senders at
// the nominal rate about one request in ten finds both senders busy and
// waits a whole service time, so p90 and p95 sit on the edge between the
// no-wait and wait modes and flip between them from run to run; p75 lies
// clearly in the no-wait mode. The step diagnostics print p90 and the
// highest supported tail.
const gatedTailQ = 0.75

// nominalMin is the fewest arrivals the nominal step gets: enough
// completions for a p90 and pattern pages for a p75, each with well over ten
// samples beyond it; stepMin the fewest the other steps get.
const (
	nominalMin = 600
	stepMin    = 80
)

// readFixture is the serve-read set-up: one memory-only host holding the
// islands model on a loopback listener, and a client with one connection per
// sender.
type readFixture struct {
	host *serve.Host
	http *httpHost
	hc   *http.Client
	ns   *serveclient.NamespaceClient
	snap *serve.Snapshot
}

func (fx *readFixture) close() {
	fx.http.close()
	closeClient(fx.hc)
	fx.host.Close()
}

func setupRead(tr *tracer) (*readFixture, error) {
	g := islandsGraph()
	host, err := serve.NewHost(serve.HostOptions{})
	if err != nil {
		return nil, err
	}
	srv, err := host.Create(benchNS, g, nil)
	if err != nil {
		host.Close()
		return nil, err
	}
	hh, err := startHTTP(traceHandler(host, tr))
	if err != nil {
		host.Close()
		return nil, err
	}
	fx := &readFixture{host: host, http: hh, hc: newHTTPClient(runtime.NumCPU()), snap: srv.Snapshot()}
	c, err := serveclient.New(hh.url, fx.hc)
	if err != nil {
		fx.close()
		return nil, err
	}
	fx.ns = c.Namespace(benchNS)
	return fx, nil
}

// readReq is one scheduled read: a completion for verts, or a pattern page
// picked by pageU ∈ [0,1).
type readReq struct {
	complete bool
	verts    []graph.VertexID
	pageU    float64
	check    bool
}

// readStep is one ladder step's schedule.
type readStep struct {
	rate    float64
	offsets []time.Duration
	reqs    []readReq
}

// buildReadSteps draws every step's arrivals and requests from the seed.
func buildReadSteps(rng *rand.Rand, rates []float64, arrivals []int, nVerts int) []readStep {
	steps := make([]readStep, len(rates))
	for s, rate := range rates {
		n := arrivals[s]
		st := readStep{rate: rate, offsets: arrivalOffsets(rng, n, rate), reqs: make([]readReq, n)}
		nComplete := int(math.Round(completeShare * float64(n)))
		for i, p := range rng.Perm(n) {
			req := readReq{complete: p < nComplete, pageU: rng.Float64(), check: rng.Float64() < checkShare}
			if req.complete {
				for _, v := range rng.Perm(nVerts)[:verticesPerReq] {
					req.verts = append(req.verts, graph.VertexID(v))
				}
			}
			st.reqs[i] = req
		}
		steps[s] = st
	}
	return steps
}

// readRun is what one ladder step measured.
type readRun struct {
	mu sync.Mutex
	// cTimes/pTimes are the untraced requests' intervals from due time;
	// traced requests show only as spans.
	cTimes, pTimes []timing
	load           *loadStats
	failed         int
	checked        []checkedComplete
}

type checkedComplete struct {
	req  serve.CompleteRequest
	resp serve.CompleteResponse
}

// do issues one scheduled read. Latency runs from the due time; failed and
// refused requests are counted and kept out of the latency samples, which
// the step's goodput gate treats as missing the limit.
func (fx *readFixture) do(r *report, run *readRun, req readReq, due time.Time, tr *tracer) {
	ctx := context.Background()
	var root, cl uint64
	if tr != nil {
		root, cl = tr.newID(), tr.newID()
		ctx = withSpan(ctx, root, cl)
	}
	send := time.Now()
	op := "patterns"
	var err error
	if req.complete {
		op = "complete"
		creq := serve.CompleteRequest{Vertices: req.verts, TopK: topK}
		var resp serve.CompleteResponse
		resp, err = fx.ns.Complete(ctx, creq)
		if err == nil && req.check {
			run.mu.Lock()
			run.checked = append(run.checked, checkedComplete{creq, resp})
			run.mu.Unlock()
		}
	} else {
		total := len(fx.snap.Model.Patterns)
		pages := (total + pageSize - 1) / pageSize
		off := int(req.pageU*float64(pages)) * pageSize
		var resp serve.PatternsResponse
		resp, err = fx.ns.Patterns(ctx, serveclient.PatternsOptions{Offset: off, Limit: pageSize})
		if err == nil && (resp.Total != total || resp.Offset != off || len(resp.Patterns) != min(pageSize, total-off)) {
			r.fail("patterns", "page at %d: total %d, %d patterns (want %d, %d)", off, resp.Total, len(resp.Patterns), total, min(pageSize, total-off))
		}
	}
	end := time.Now()
	r.attempt(op, 1)
	run.mu.Lock()
	defer run.mu.Unlock()
	if err != nil {
		classify(r, op, err)
		run.failed++
		return
	}
	switch {
	case tr != nil:
		tr.add(root, root, "loadgen.queue", due, send)
		tr.put(span{ID: cl, Parent: root, Trace: root, Name: "serveclient." + op, Start: send, End: end})
		tr.put(span{ID: root, Trace: root, Name: "op." + op, Start: due, End: end})
	case op == "complete":
		run.cTimes = append(run.cTimes, timing{due, end})
	default:
		run.pTimes = append(run.pTimes, timing{due, end})
	}
}

// runStep plays one step's schedule open-loop with nproc senders. With a
// tracer, every other request is traced.
func (fx *readFixture) runStep(r *report, st readStep, tr *tracer) *readRun {
	run := &readRun{}
	run.load = openLoop(st.offsets, runtime.NumCPU(), func(i int, due time.Time) {
		t := tr
		if i%2 == 0 {
			t = nil
		}
		fx.do(r, run, st.reqs[i], due, t)
	})
	return run
}

// checkCompletions compares sampled responses with the ranking of an
// in-process completion.Scorer built on the served snapshot.
func (fx *readFixture) checkCompletions(r *report, runs []*readRun) {
	ref := completion.NewScorer(fx.snap.Model, fx.snap.Graph)
	vocab := fx.snap.Graph.Vocab()
	for _, run := range runs {
		for _, c := range run.checked {
			r.attempt("complete_check", 1)
			if !sameRanking(c, ref, vocab, fx.snap.Generation) {
				r.fail("complete_check", "vertices %v: served ranking differs from the in-process scorer's", c.req.Vertices)
			}
		}
	}
}

func sameRanking(c checkedComplete, ref *completion.Scorer, vocab *graph.Vocab, gen uint64) bool {
	if c.resp.Generation != gen || len(c.resp.Results) != len(c.req.Vertices) {
		return false
	}
	for i, v := range c.req.Vertices {
		got := c.resp.Results[i]
		want := rankScores(ref.ScoreNode(v), vocab, c.req.TopK)
		if got.Vertex != v || len(got.Values) != len(want) {
			return false
		}
		for j := range want {
			if got.Values[j] != want[j] {
				return false
			}
		}
	}
	return true
}

// rankScores is Algorithm 5's ranking: the top k finite scores, highest
// first, ties broken by ascending value name.
func rankScores(row []float64, vocab *graph.Vocab, k int) []serve.CandidateJSON {
	var out []serve.CandidateJSON
	for id, s := range row {
		if !math.IsInf(s, 0) && !math.IsNaN(s) {
			out = append(out, serve.CandidateJSON{Value: vocab.Name(graph.AttrID(id)), Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Value < out[j].Value
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// warm issues a few unmeasured requests of each kind so connections, page
// faults and lazily built state are paid before timing starts.
func (fx *readFixture) warm(r *report, reqs []readReq) {
	run := &readRun{}
	for i := 0; i < len(reqs) && i < 40; i++ {
		fx.do(r, run, reqs[i], time.Now(), nil)
	}
}

// stepArrivals sizes the ladder: the nominal step takes 70% of the window
// (and at least nominalMin arrivals); the others a tenth each.
func stepArrivals(seconds float64) []int {
	out := make([]int, len(ladder))
	for i, rate := range ladder {
		if i == nominalStep {
			out[i] = max(nominalMin, int(rate*seconds*0.7))
		} else {
			out[i] = max(stepMin, int(rate*seconds/10))
		}
	}
	return out
}

func runServeRead(cfg config, r *report) error {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	fx, setupS, err := medianSetup(3, cfg.clock, func() (*readFixture, error) { return setupRead(tr) },
		func(fx *readFixture) { fx.close() })
	if err != nil {
		return err
	}
	defer fx.close()
	rng := rand.New(rand.NewSource(cfg.seed))
	nVerts := fx.snap.Graph.NumVertices()

	if cfg.trace {
		// Traced run: the nominal step over the whole window with every
		// other request traced, then the per-layer probes.
		n := max(nominalMin, int(ladder[nominalStep]*cfg.seconds))
		st := buildReadSteps(rng, ladder[nominalStep:nominalStep+1], []int{n}, nVerts)[0]
		fx.warm(r, st.reqs)
		run := fx.runStep(r, st, tr)
		fx.checkCompletions(r, []*readRun{run})
		reportTrace(cfg, r, tr, map[string]float64{
			"complete": wallSample(run.cTimes).median(), "patterns": wallSample(run.pTimes).median(),
		})
		setTail(r, "loadgen.late_ms", &run.load.late, 0.99)
		probeServing(r, fx.host, fx.ns, fx.snap, st.reqs)
		probeScrape(r, fx.hc, fx.http.url)
		m := fx.snap.Model
		setSearchCounters(r, float64(m.GainEvals), float64(m.Iterations))
		ref, err := modelJSON(m)
		if err != nil {
			return err
		}
		probeStages(r, fx.snap.Graph, ref)
		probeKernels(r, usflightGraph(cfg.seed), fx.snap.Graph)
		return nil
	}

	steps := buildReadSteps(rng, ladder, stepArrivals(cfg.seconds), nVerts)
	fx.warm(r, steps[0].reqs)
	var runs []*readRun
	var results []stepResult
	var nomC, nomP *sample
	for i, st := range steps {
		run := fx.runStep(r, st, nil)
		runs = append(runs, run)
		// Gated latencies are net of steal; the raw ones are diagnostics.
		netC, netP := cfg.clock.netSample(run.cTimes), cfg.clock.netSample(run.pTimes)
		q := highestTail(netC.n())
		res := stepResult{
			rate: st.rate, tailQ: q, failed: run.failed, nominal: i == nominalStep,
			backlog: backlogGrew(run.load.ts, run.load.backlog, st.rate),
		}
		if q > 0 {
			res.tail = netC.q(q)
		}
		if res.nominal {
			nomC, nomP = netC, netP
		}
		results = append(results, res)
		diag("step", map[string]any{
			"rate": st.rate, "nominal": res.nominal, "arrivals": len(st.reqs), "failed": run.failed,
			"steal_share": cfg.clock.share(run.load.start, run.load.end),
			"complete_n":  netC.n(), "complete_p50_ms": netC.median(), "complete_p90_ms": netC.q(0.9),
			"complete_tail_q": q, "complete_tail_ms": res.tail,
			"complete_wall_p50_ms": wallSample(run.cTimes).median(),
			"patterns_n":           netP.n(), "patterns_p50_ms": netP.median(), "patterns_p90_ms": netP.q(0.9),
			"patterns_wall_p50_ms": wallSample(run.pTimes).median(),
			"backlog_grew":         res.backlog, "late_p99_ms": run.load.late.q(0.99),
			"passes": res.passes(completeLimitMS),
		})
	}
	fx.checkCompletions(r, runs)
	r.set("setup_s", setupS, "s")
	r.set("heap_mb", heapMB(), "MB")
	r.set("primary_ms.p50", nomC.median(), "ms")
	r.set("secondary_ms.p50", nomP.median(), "ms")
	r.set("complete_ms.p50", nomC.median(), "ms")
	setTail(r, "complete_ms", nomC, gatedTailQ)
	r.set("patterns_ms.p50", nomP.median(), "ms")
	setTail(r, "patterns_ms", nomP, gatedTailQ)
	r.set("read_goodput_rps", goodput(results, completeLimitMS), "rps")
	return nil
}

// setTail reports name.pNN when the sample supports it; a sample too small
// for its declared tail is a benchmark failure, not a silently weaker tail.
func setTail(r *report, name string, s *sample, q float64) {
	label := name + ".p" + strconv.Itoa(int(math.Round(q*100)))
	v, ok := s.tail(q)
	if !ok {
		r.fail("metric", "%s: %d samples leave fewer than %d beyond the tail", label, s.n(), minBeyond)
		return
	}
	r.set(label, v, "ms")
}
