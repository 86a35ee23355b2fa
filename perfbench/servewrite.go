package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cspm/internal/graph"
	"cspm/internal/obs"
	"cspm/internal/serve"
	"cspm/internal/serveclient"
)

const (
	// batchRate is the mutation batches per second, which keeps the leader's
	// re-mine loop about two-thirds busy; near two a second it saturates and
	// visibility latency swings from run to run.
	batchRate = 1.0
	// revertEvery makes every fourth batch revert the newest unreverted add,
	// which restores that island's fingerprint (a shard-cache hit). A share
	// far from one half keeps medians off the boundary between the hit and
	// miss modes.
	revertEvery = 4
	// batchJitter is the largest shift of a batch's arrival, as a share of
	// the period.
	batchJitter = 0.05
	// writeReadRate is the replica completion queries per second beside the
	// writes, one vertex each; writeReadMin the fewest the run sends.
	writeReadRate  = 40.0
	writeReadMin   = 400
	writeReadVerts = 1
	debounce       = 100 * time.Millisecond // cspm-serve's default
	drainTimeout   = 90 * time.Second
)

// writeFixture is the serve-write set-up: a durable leader host and one
// replica host following it, both on loopback listeners, with separate
// clients for writes, replica reads and control calls (watches, status).
type writeFixture struct {
	dir             string
	leader, replica *serve.Host
	lHTTP, rHTTP    *httpHost
	writeHC, readHC *http.Client
	ctlHC, followHC *http.Client
	leaderNS        *serveclient.NamespaceClient // writes
	ctlNS, repNS    *serveclient.NamespaceClient // control calls to the leader, the replica
	fleet           *serveclient.FleetNamespace
	g               *graph.Graph
}

func (fx *writeFixture) close() {
	if fx.rHTTP != nil {
		fx.rHTTP.close()
	}
	if fx.replica != nil {
		fx.replica.Close()
	}
	if fx.lHTTP != nil {
		fx.lHTTP.close()
	}
	if fx.leader != nil {
		fx.leader.Close()
	}
	for _, hc := range []*http.Client{fx.writeHC, fx.readHC, fx.ctlHC, fx.followHC} {
		if hc != nil {
			closeClient(hc)
		}
	}
	os.RemoveAll(fx.dir)
}

func setupWrite(outDir string, tr *tracer) (fx *writeFixture, err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "write-")
	if err != nil {
		return nil, err
	}
	n := runtime.NumCPU()
	fx = &writeFixture{dir: dir, g: islandsGraph(),
		writeHC: newHTTPClient(n), readHC: newHTTPClient(n), ctlHC: newHTTPClient(8), followHC: newHTTPClient(8)}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	fx.leader, err = serve.NewHost(serve.HostOptions{
		RootDir: filepath.Join(dir, "leader"),
		Tenant:  serve.Options{Debounce: debounce},
	})
	if err != nil {
		return nil, err
	}
	if _, err = fx.leader.Create(benchNS, fx.g, nil); err != nil {
		return nil, err
	}
	if fx.lHTTP, err = startHTTP(traceHandler(fx.leader, tr)); err != nil {
		return nil, err
	}
	fx.replica, err = serve.NewHost(serve.HostOptions{
		RootDir:      filepath.Join(dir, "replica"),
		Follow:       fx.lHTTP.url,
		FollowClient: fx.followHC,
	})
	if err != nil {
		return nil, err
	}
	if fx.rHTTP, err = startHTTP(fx.replica); err != nil {
		return nil, err
	}
	lc, err := serveclient.New(fx.lHTTP.url, fx.writeHC)
	if err != nil {
		return nil, err
	}
	fx.leaderNS = lc.Namespace(benchNS)
	ctlL, err := serveclient.New(fx.lHTTP.url, fx.ctlHC)
	if err != nil {
		return nil, err
	}
	ctlR, err := serveclient.New(fx.rHTTP.url, fx.ctlHC)
	if err != nil {
		return nil, err
	}
	fx.repNS = ctlR.Namespace(benchNS)
	fleet, err := serveclient.NewFleet(fx.lHTTP.url, []string{fx.rHTTP.url}, fx.readHC)
	if err != nil {
		return nil, err
	}
	fx.fleet = fleet.Namespace(benchNS)
	// The replica is attached once it serves the leader's generation.
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	fx.ctlNS = ctlL.Namespace(benchNS)
	head, err := fx.ctlNS.Watch(ctx, 0, 0)
	if err != nil {
		return nil, err
	}
	if _, err = fx.repNS.AwaitGeneration(ctx, head.Generation); err != nil {
		return nil, fmt.Errorf("replica attach: %w", err)
	}
	return fx, nil
}

// buildEdits draws the mutation batches from the seed: each adds one edge
// between two-hop neighbours inside one island (islands never merge), and
// every revertEvery-th batch instead deletes the newest add not yet
// reverted.
func buildEdits(rng *rand.Rand, g *graph.Graph, n int) [][]serve.Mutation {
	type edge struct{ u, v graph.VertexID }
	norm := func(u, v graph.VertexID) edge {
		if u > v {
			u, v = v, u
		}
		return edge{u, v}
	}
	present := map[edge]bool{}
	var stack []edge
	out := make([][]serve.Mutation, 0, n)
	nv := g.NumVertices()
	for len(out) < n {
		if len(out)%revertEvery == revertEvery-1 && len(stack) > 0 {
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			delete(present, e)
			out = append(out, []serve.Mutation{{Op: serve.OpDelEdge, U: e.u, V: e.v}})
			continue
		}
		for {
			u := graph.VertexID(rng.Intn(nv))
			nu := g.Neighbors(u)
			if len(nu) == 0 {
				continue
			}
			w := nu[rng.Intn(len(nu))]
			nw := g.Neighbors(w)
			v := nw[rng.Intn(len(nw))]
			e := norm(u, v)
			if v == u || present[e] || g.HasEdge(u, v) {
				continue
			}
			present[e] = true
			stack = append(stack, e)
			out = append(out, []serve.Mutation{{Op: serve.OpAddEdge, U: e.u, V: e.v}})
			break
		}
	}
	return out
}

// batchObs is what the run observed about one mutation batch.
type batchObs struct {
	due, send, ack    time.Time
	seq               uint64
	acked             bool
	visible, rVisible time.Time
	traced            bool
	clientSpan        uint64 // traced batches: the client span's ID
}

// genObs is one generation as a watcher saw it.
type genObs struct {
	sha    string
	at     time.Time
	folded uint64
	hits   int
	misses int
}

// watcher follows one host's generations: each published generation's
// commitment, when the client saw it, and the batches it folded.
type watcher struct {
	mu   sync.Mutex
	gens map[uint64]genObs
	done chan struct{}
}

func watch(ctx context.Context, ns *serveclient.NamespaceClient, from uint64, withModel bool) *watcher {
	w := &watcher{gens: map[uint64]genObs{}, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		gen := from
		for ctx.Err() == nil {
			resp, err := ns.Watch(ctx, gen+1, 2*time.Second)
			if err != nil {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			if resp.TimedOut || resp.Generation <= gen {
				continue
			}
			at := time.Now()
			st, err := ns.ReplicationStatus(ctx)
			if err != nil {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			o := genObs{sha: resp.ModelSHA256, at: at, folded: st.FoldedBatches}
			if st.Generation > resp.Generation {
				// A newer generation landed between the two calls; credit its
				// batches no earlier than the status read.
				o.at = time.Now()
			}
			if withModel {
				if m, err := ns.Model(ctx); err == nil && m.Generation == resp.Generation {
					o.hits, o.misses = m.CacheHits, m.CacheMisses
				}
			}
			w.mu.Lock()
			w.gens[resp.Generation] = o
			w.mu.Unlock()
			gen = resp.Generation
		}
	}()
	return w
}

// writeRun is everything one measured window of serve-write observed.
type writeRun struct {
	mu        sync.Mutex
	batches   []batchObs
	reads     []timing // replica completions, from due time
	scrapes   sample   // GET /metrics, ms
	late      sample
	leaderW   *watcher
	replicaW  *watcher
	firstGen  uint64
	bytesGen0 uint64
}

// runWindow plays the three open loops — mutation batches, replica
// reads, scrapes — for one window, then waits until every acked batch is
// folded on both hosts.
func (fx *writeFixture) runWindow(r *report, edits [][]serve.Mutation, reads []readReq, seconds float64, rng *rand.Rand, tr *tracer) *writeRun {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	head, err := fx.ctlNS.Watch(ctx, 0, 0)
	if err != nil {
		r.fail("watch", "leader head: %v", err)
		return nil
	}
	run := &writeRun{firstGen: head.Generation, batches: make([]batchObs, len(edits))}
	if m, err := fx.ctlNS.Metrics(ctx); err == nil {
		run.bytesGen0 = m.ReplicationBytesShipped
	}
	run.leaderW = watch(ctx, fx.ctlNS, head.Generation, true)
	run.replicaW = watch(ctx, fx.repNS, head.Generation, false)
	// Batches arrive at a fixed rate (with a little seeded jitter), so a
	// batch rarely waits behind the previous one's pass: visibility then
	// measures the write path, not Poisson bunching at two-thirds load.
	wOff := evenOffsets(rng, len(edits), batchRate, batchJitter)
	rOff := arrivalOffsets(rng, len(reads), float64(len(reads))/seconds)
	sOff := make([]time.Duration, int(seconds))
	for i := range sOff {
		sOff[i] = time.Duration(i) * time.Second
	}
	n := runtime.NumCPU()
	var wg sync.WaitGroup
	var lw, lr, ls *loadStats
	wg.Add(3)
	go func() {
		defer wg.Done()
		lw = openLoop(wOff, n, func(i int, due time.Time) { fx.mutate(r, run, i, edits[i], due, tr) })
	}()
	go func() {
		defer wg.Done()
		lr = openLoop(rOff, n, func(i int, due time.Time) { fx.read(r, run, reads[i], due) })
	}()
	go func() {
		defer wg.Done()
		ls = openLoop(sOff, 1, func(i int, due time.Time) {
			r.attempt("scrape", 1)
			d, err := scrape(fx.ctlHC, fx.lHTTP.url)
			if err != nil {
				r.fail("scrape", "%v", err)
				return
			}
			run.mu.Lock()
			run.scrapes.addDur(d)
			run.mu.Unlock()
		})
	}()
	wg.Wait()
	for _, l := range []*loadStats{lw, lr, ls} {
		run.late.vals = append(run.late.vals, l.late.vals...)
	}
	fx.drain(r, run)
	cancel()
	<-run.leaderW.done
	<-run.replicaW.done
	return run
}

func (fx *writeFixture) mutate(r *report, run *writeRun, i int, muts []serve.Mutation, due time.Time, tr *tracer) {
	ctx := context.Background()
	var root, cl uint64
	// Half the batches are traced, in runs of four so that traced and
	// untraced batches hold the same share of reverts (every fourth).
	if (i/revertEvery)%2 == 1 {
		tr = nil
	}
	if tr != nil {
		root, cl = tr.newID(), tr.newID()
		ctx = withSpan(ctx, root, cl)
	}
	send := time.Now()
	r.attempt("mutate", 1)
	resp, err := fx.leaderNS.Mutate(ctx, muts)
	ack := time.Now()
	if err != nil {
		classify(r, "mutate", err)
		return
	}
	run.mu.Lock()
	run.batches[i] = batchObs{due: due, send: send, ack: ack, seq: resp.Batch, acked: true, traced: tr != nil, clientSpan: cl}
	run.mu.Unlock()
	if tr != nil {
		tr.add(root, root, "loadgen.queue", due, send)
		tr.put(span{ID: cl, Parent: root, Trace: root, Name: "serveclient.mutate", Start: send, End: ack})
		tr.put(span{ID: root, Trace: root, Name: "op.ack", Start: due, End: ack})
	}
}

func (fx *writeFixture) read(r *report, run *writeRun, req readReq, due time.Time) {
	r.attempt("complete", 1)
	_, err := fx.fleet.Complete(context.Background(), serve.CompleteRequest{Vertices: req.verts, TopK: topK})
	end := time.Now()
	if err != nil {
		classify(r, "complete", err)
		return
	}
	run.mu.Lock()
	run.reads = append(run.reads, timing{due, end})
	run.mu.Unlock()
}

// drain waits until both hosts have folded every acked batch, then checks
// that every generation both watchers saw carries the same commitment on
// the replica as on the leader.
func (fx *writeFixture) drain(r *report, run *writeRun) {
	var last uint64
	for _, b := range run.batches {
		if b.acked && b.seq > last {
			last = b.seq
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	for _, host := range []struct {
		name string
		ns   *serveclient.NamespaceClient
		w    *watcher
	}{{"leader", fx.ctlNS, run.leaderW}, {"replica", fx.repNS, run.replicaW}} {
		for {
			st, err := host.ns.ReplicationStatus(ctx)
			if err == nil && st.FoldedBatches >= last {
				break
			}
			if ctx.Err() != nil {
				r.fail("mutate", "batches up to %d not folded on the %s before the deadline", last, host.name)
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		// Let the watcher record the final generation before comparing.
		for ctx.Err() == nil {
			host.w.mu.Lock()
			seen := !earliest(host.w.gens, last).IsZero()
			host.w.mu.Unlock()
			if seen {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	run.leaderW.mu.Lock()
	run.replicaW.mu.Lock()
	defer run.leaderW.mu.Unlock()
	defer run.replicaW.mu.Unlock()
	for gen, ro := range run.replicaW.gens {
		lo, ok := run.leaderW.gens[gen]
		if !ok {
			continue
		}
		r.attempt("replica_check", 1)
		if lo.sha != ro.sha {
			r.fail("replica_check", "generation %d: replica model_sha256 %s, leader %s", gen, ro.sha, lo.sha)
		}
	}
	for i := range run.batches {
		b := &run.batches[i]
		if !b.acked {
			continue
		}
		b.visible = earliest(run.leaderW.gens, b.seq)
		b.rVisible = earliest(run.replicaW.gens, b.seq)
		if b.visible.IsZero() || b.rVisible.IsZero() {
			r.fail("mutate", "batch %d never observed as visible", b.seq)
		}
	}
}

// earliest is the first time a generation folding seq was seen.
func earliest(gens map[uint64]genObs, seq uint64) time.Time {
	var best time.Time
	for _, o := range gens {
		if o.folded >= seq && (best.IsZero() || o.at.Before(best)) {
			best = o.at
		}
	}
	return best
}

func runServeWrite(cfg config, r *report) error {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	fx, setupS, err := medianSetup(3, cfg.clock, func() (*writeFixture, error) { return setupWrite(cfg.outDir, tr) },
		func(fx *writeFixture) { fx.close() })
	if err != nil {
		return err
	}
	defer fx.close()
	rng := rand.New(rand.NewSource(cfg.seed))
	nBatches := max(10, int(batchRate*cfg.seconds))
	nReads := max(writeReadMin, int(writeReadRate*cfg.seconds))
	edits := buildEdits(rng, fx.g, nBatches)
	reads := make([]readReq, nReads)
	for i := range reads {
		reads[i] = readReq{complete: true}
		for _, v := range rng.Perm(fx.g.NumVertices())[:writeReadVerts] {
			reads[i].verts = append(reads[i].verts, graph.VertexID(v))
		}
	}

	if !cfg.trace {
		run := fx.runWindow(r, edits, reads, cfg.seconds, rng, nil)
		if run == nil {
			return fmt.Errorf("serve-write window failed")
		}
		// Gated latencies are net of steal; the raw ones are diagnostics.
		clk := cfg.clock
		var ack, vis, rvis, wall sample
		for _, b := range run.batches {
			if b.acked && !b.visible.IsZero() && !b.rVisible.IsZero() {
				ack.addDur(clk.net(b.due, b.ack))
				vis.addDur(clk.net(b.due, b.visible))
				rvis.addDur(clk.net(b.due, b.rVisible))
				wall.addDur(b.visible.Sub(b.due))
			}
		}
		reads := clk.netSample(run.reads)
		diag("batches", map[string]any{"n": ack.n(), "ack_ms": ack.vals, "visible_ms": vis.vals,
			"replica_visible_ms": rvis.vals, "visible_wall_p50_ms": wall.median(),
			"reads": reads.n(), "read_p75_ms": reads.q(0.75), "read_p90_ms": reads.q(0.9)})
		r.set("setup_s", setupS, "s")
		r.set("heap_mb", heapMB(), "MB")
		// Reads overlap a re-mine pass for most, but not all, of the window,
		// so their p75 sits on the edge between the two modes and spread by a
		// third from run to run on the reference box; one batch a second
		// leaves too few batches for any tail with ten samples beyond it. So
		// serve-write reports medians only.
		r.set("primary_ms.p50", vis.median(), "ms")
		r.set("secondary_ms.p50", rvis.median(), "ms")
		r.set("complete_ms.p50", reads.median(), "ms")
		r.set("ack_ms.p50", ack.median(), "ms")
		r.set("visible_ms.p50", vis.median(), "ms")
		r.set("replica_visible_ms.p50", rvis.median(), "ms")
		return nil
	}

	// Traced run: the same window with half the batches traced.
	run := fx.runWindow(r, edits, reads, cfg.seconds, rng, tr)
	if run == nil {
		return fmt.Errorf("serve-write window failed")
	}
	return fx.reportWriteLayers(cfg, r, tr, run, reads)
}

// reportWriteLayers turns the window's stamps, re-mine profiles and
// generation observations into spans (for the traced batches) and
// per-layer metrics (over every batch), then probes the serving layers with
// the window's read requests.
func (fx *writeFixture) reportWriteLayers(cfg config, r *report, tr *tracer, run *writeRun, reads []readReq) error {
	ctx := context.Background()
	lNS, rNS := fx.ctlNS, fx.repNS
	var walMS, queueMS, runMS, pubMS, ckptMS, lagMS, verifyMS sample
	var uAck, uVis, uRVis sample
	unmirrored := 0
	for _, b := range run.batches {
		if !b.acked {
			continue
		}
		if !b.traced && !b.visible.IsZero() && !b.rVisible.IsZero() {
			uAck.addDur(b.ack.Sub(b.due))
			uVis.addDur(b.visible.Sub(b.due))
			uRVis.addDur(b.rVisible.Sub(b.due))
		}
		lt, err := lNS.Trace(ctx, b.seq)
		if err != nil {
			r.fail("trace", "leader trace %d: %v", b.seq, err)
			continue
		}
		st := stamps(lt.Events)
		// A replica that installs a checkpoint covering a batch before it
		// pulled the batch's WAL record never traces it; that is correct
		// behaviour, so such batches only lack the replica-side stamps.
		rst := map[string]time.Time{}
		if rt, err := rNS.Trace(ctx, b.seq); err == nil {
			rst = stamps(rt.Events)
		} else if !serveclient.HasCode(err, serve.CodeTraceNotFound) {
			r.fail("trace", "replica trace %d: %v", b.seq, err)
		} else {
			unmirrored++
		}
		between(&walMS, st, obs.StageSubmitted, st, obs.StageWALAppended)
		between(&queueMS, st, obs.StageWALAppended, st, obs.StageRemineStart)
		between(&runMS, st, obs.StageRemineStart, st, obs.StageFolded)
		between(&pubMS, st, obs.StageFolded, st, obs.StagePublished)
		between(&ckptMS, st, obs.StagePublished, st, obs.StageCheckpointed)
		between(&lagMS, st, obs.StageCheckpointed, rst, obs.StageSwapped)
		between(&verifyMS, st, obs.StageCheckpointed, rst, obs.StageVerified)
		if b.traced {
			fx.batchSpans(tr, b, st, rst)
		}
	}
	diag("replica_untraced_batches", unmirrored)
	reportTrace(cfg, r, tr, map[string]float64{
		"ack": uAck.median(), "visible": uVis.median(), "replica_visible": uRVis.median(),
	})
	r.set("wal.append_ms", walMS.median(), "ms")
	r.set("serve.remine.queue_ms", queueMS.median(), "ms")
	r.set("serve.remine.run_ms", runMS.median(), "ms")
	r.set("serve.remine.publish_ms", pubMS.median(), "ms")
	r.set("serve.remine.checkpoint_ms", ckptMS.median(), "ms")
	r.set("serve.replication.lag_ms", lagMS.median(), "ms")
	r.set("serve.replication.verify_ms", verifyMS.median(), "ms")

	// Re-mine stage profiles of the window's passes.
	rem, err := lNS.Remines(ctx)
	if err != nil {
		return fmt.Errorf("remines: %w", err)
	}
	stages := map[string]*sample{}
	var perPass sample
	for _, p := range rem.Remines {
		if p.Generation <= run.firstGen || p.Error != "" {
			continue
		}
		perPass.add(float64(p.Batches))
		for _, s := range p.Spans {
			if stages[s.Stage] == nil {
				stages[s.Stage] = &sample{}
			}
			stages[s.Stage].add(s.Seconds * 1000)
		}
	}
	r.set("serve.remine.batches_per_pass", perPass.median(), "count")
	if s := stages[obs.SpanRebuild]; s != nil {
		r.set("graph.rebuild_ms", s.median(), "ms")
	} else {
		r.fail("trace", "no rebuild stage in the re-mine profiles")
	}
	setStages(r, stages)

	var hits, total int
	var gens uint64
	run.leaderW.mu.Lock()
	for _, o := range run.leaderW.gens {
		hits += o.hits
		total += o.hits + o.misses
		gens++
	}
	run.leaderW.mu.Unlock()
	if total > 0 {
		r.set("shardcache.hit_ratio", float64(hits)/float64(total), "ratio")
	}
	if m, err := lNS.Metrics(ctx); err == nil && gens > 0 {
		r.set("serve.replication.bytes_per_gen", float64(m.ReplicationBytesShipped-run.bytesGen0)/float64(gens), "B")
	} else {
		r.fail("trace", "leader metrics: %v", err)
	}
	// The 1 Hz scrapes ran beside the writes and reads; the probes below run
	// on the leader once it is idle, on its final generation.
	r.set("obs.scrape_ms", run.scrapes.median(), "ms")
	setTail(r, "loadgen.late_ms", &run.late, 0.99)
	srv, ok := fx.leader.Tenant(benchNS)
	if !ok {
		return fmt.Errorf("leader has no %s tenant", benchNS)
	}
	snap := srv.Snapshot()
	setSearchCounters(r, float64(snap.Model.GainEvals), float64(snap.Model.Iterations))
	probeServing(r, fx.leader, fx.ctlNS, snap, reads)
	probeKernels(r, usflightGraph(cfg.seed), snap.Graph)
	return nil
}

// between adds the time from stage a (in ma) to stage b (in mb) to s when
// both were stamped.
func between(s *sample, ma map[string]time.Time, a string, mb map[string]time.Time, b string) {
	ta, okA := ma[a]
	tb, okB := mb[b]
	if okA && okB {
		s.addDur(tb.Sub(ta))
	}
}

// stamps maps each stage of a batch's trace to its first stamp.
func stamps(evs []serve.TraceEventJSON) map[string]time.Time {
	out := map[string]time.Time{}
	for _, e := range evs {
		if _, ok := out[e.Stage]; !ok {
			out[e.Stage] = e.At
		}
	}
	return out
}

// batchSpans records one batch's visible and replica-visible operations as
// chains of segments tiling due → observed, and hangs the leader's WAL
// append under the handler span of its acknowledged request. Operations
// missing a stamp are left out.
func (fx *writeFixture) batchSpans(tr *tracer, b batchObs, st, rst map[string]time.Time) {
	for _, m := range []struct {
		m     map[string]time.Time
		stage string
	}{{st, obs.StageSubmitted}, {st, obs.StageWALAppended}, {st, obs.StageRemineStart},
		{st, obs.StageFolded}, {st, obs.StagePublished}, {st, obs.StageCheckpointed}} {
		if _, ok := m.m[m.stage]; !ok {
			return
		}
	}
	for _, s := range tr.spans {
		if s.Parent == b.clientSpan && s.Name == "serve.handler" {
			tr.add(s.Trace, s.ID, "wal.append", st[obs.StageSubmitted], st[obs.StageWALAppended])
			break
		}
	}
	prefix := []string{"loadgen.queue", "serveclient.mutate", "serve.remine.queue", "serve.remine.run", "serve.remine.publish"}
	ends := []time.Time{b.send, b.ack, st[obs.StageRemineStart], st[obs.StageFolded], st[obs.StagePublished]}
	tr.chain(b.seq, "op.visible", b.due, append(prefix, "watch.leader"), append(ends, b.visible))
	if _, ok := rst[obs.StageSwapped]; !ok {
		return
	}
	tr.chain(b.seq, "op.replica_visible", b.due,
		append(prefix, "serve.remine.checkpoint", "serve.replication.verify", "serve.replication.swap", "watch.replica"),
		append(ends, st[obs.StageCheckpointed], rst[obs.StageVerified], rst[obs.StageSwapped], b.rVisible))
}
