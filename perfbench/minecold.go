package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	icspm "cspm/internal/cspm"
	"cspm/internal/graph"
	"cspm/internal/intset"
	"cspm/internal/invdb"
)

// mineFixture is the mine-cold set-up: the two pass graphs, their reference
// models (cspm.Mine, serialised) and the loopback shard worker pool.
type mineFixture struct {
	usf, isl       *graph.Graph
	refUSF, refIsl []byte
	pool           *rpcPool
}

func modelJSON(m *icspm.Model) ([]byte, error) {
	var b bytes.Buffer
	if err := m.WriteJSON(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func setupMine(seed int64) (*mineFixture, error) {
	fx := &mineFixture{usf: usflightGraph(seed), isl: islandsGraph()}
	var err error
	if fx.refUSF, err = modelJSON(icspm.Mine(fx.usf)); err != nil {
		return nil, err
	}
	if fx.refIsl, err = modelJSON(icspm.Mine(fx.isl)); err != nil {
		return nil, err
	}
	if fx.pool, err = startPool(runtime.NumCPU()); err != nil {
		return nil, err
	}
	return fx, nil
}

// passResult is one cold mining pass: wall time per mine and the models'
// description lengths and search counters.
type passResult struct {
	traced                   bool
	start, t1, t2, end       time.Time // pass start, end of each mine
	usfMS, shardedMS, distMS float64
	finalDL, baselineDL      float64
	gainEvals, merges        int
	remoteJobs, retries      int
}

// minePass runs the three mines of one pass and checks every model against
// its reference. With a tracer, the pass is one "op.pass" root span with a
// child span per mine.
func minePass(fx *mineFixture, r *report, tr *tracer, trace uint64) passResult {
	var pass passResult
	root := tr.newID()
	t0 := time.Now()
	check := func(name string, m *icspm.Model, ref []byte) {
		r.attempt("mine", 1)
		got, err := modelJSON(m)
		if err != nil || !bytes.Equal(got, ref) {
			r.fail("mine", "%s model differs from cspm.Mine's (err %v)", name, err)
		}
		pass.finalDL += m.FinalDL
		pass.baselineDL += m.BaselineDL
		pass.gainEvals += m.GainEvals
		pass.merges += m.Iterations
	}
	m1 := icspm.Mine(fx.usf)
	t1 := time.Now()
	m2 := icspm.MineSharded(fx.isl, icspm.Options{Shards: 4, CollectStats: true})
	t2 := time.Now()
	m3, err := icspm.MineDistributed(fx.isl, icspm.DistributedOptions{
		Options:   icspm.Options{CollectStats: true},
		Transport: fx.pool.client,
	})
	t3 := time.Now()
	tr.add(trace, root, "cspm.Mine", t0, t1)
	tr.add(trace, root, "cspm.MineSharded", t1, t2)
	tr.add(trace, root, "cspm.MineDistributed", t2, t3)
	tr.put(span{ID: root, Trace: trace, Name: "op.pass", Start: t0, End: t3})
	check("usflight", m1, fx.refUSF)
	check("islands sharded", m2, fx.refIsl)
	if err != nil {
		r.attempt("mine", 1)
		r.fail("mine", "distributed: %v", err)
	} else {
		check("islands distributed", m3, fx.refIsl)
		pass.remoteJobs, pass.retries = m3.RemoteJobs, m3.RemoteRetries
	}
	pass.traced, pass.start, pass.t1, pass.t2, pass.end = tr != nil, t0, t1, t2, t3
	pass.usfMS, pass.shardedMS, pass.distMS = ms(t1.Sub(t0)), ms(t2.Sub(t1)), ms(t3.Sub(t2))
	return pass
}

// passLoop repeats passes for about seconds (at least minPasses): a pass
// starts only while half a median pass still fits in the window. With a
// tracer, every other pass is traced.
func passLoop(fx *mineFixture, r *report, tr *tracer, seconds float64, minPasses int) []passResult {
	var out []passResult
	var tot sample
	start := time.Now()
	for len(out) < minPasses || time.Since(start).Seconds()+tot.median()/2000 < seconds {
		t := tr
		if len(out)%2 == 0 {
			t = nil
		}
		pass := minePass(fx, r, t, uint64(len(out)+1))
		out = append(out, pass)
		tot.addDur(pass.end.Sub(pass.start))
	}
	return out
}

func runMineCold(cfg config, r *report) error {
	fx, setupS, err := medianSetup(3, cfg.clock, func() (*mineFixture, error) { return setupMine(cfg.seed) },
		func(fx *mineFixture) { fx.pool.close() })
	if err != nil {
		return err
	}
	defer fx.pool.close()
	if !cfg.trace {
		passes := passLoop(fx, r, nil, cfg.seconds, 3)
		var pass, sharded, wall sample
		var final, base float64
		var mines [][3]float64
		for _, p := range passes {
			pass.add(cfg.clock.net(p.start, p.end).Seconds())
			sharded.addDur(cfg.clock.net(p.t1, p.t2))
			wall.add(p.end.Sub(p.start).Seconds())
			mines = append(mines, [3]float64{p.usfMS, p.shardedMS, p.distMS})
			final += p.finalDL
			base += p.baselineDL
		}
		diag("passes_s", map[string]any{"wall": wall.vals, "net_of_steal": pass.vals,
			"wall_ms_usflight_sharded_distributed": mines})
		r.set("setup_s", setupS, "s")
		r.set("heap_mb", heapMB(), "MB")
		r.set("primary_ms.p50", 1000*pass.median(), "ms")
		r.set("secondary_ms.p50", sharded.median(), "ms")
		r.set("mine_s", pass.median(), "s")
		r.set("compression_pct", 100*final/base, "%")
		return nil
	}

	// Traced run: passes alternate untraced and traced, so the overhead line
	// compares passes made under the same conditions; then the probes.
	tr := newTracer()
	passes := passLoop(fx, r, tr, cfg.seconds, 4)
	var u sample
	for _, p := range passes {
		if !p.traced {
			u.addDur(p.end.Sub(p.start))
		}
	}
	reportTrace(cfg, r, tr, map[string]float64{"pass": u.median()})

	var usf, sh, dist, evals, merges sample
	for _, p := range passes {
		usf.add(p.usfMS)
		sh.add(p.shardedMS)
		dist.add(p.distMS)
		evals.add(float64(p.gainEvals))
		merges.add(float64(p.merges))
	}
	last := passes[len(passes)-1]
	r.set("cspm.mine_ms.usflight", usf.median(), "ms")
	r.set("cspm.mine_ms.islands_sharded", sh.median(), "ms")
	r.set("cspm.mine_ms.islands_distributed", dist.median(), "ms")
	setSearchCounters(r, evals.median(), merges.median())
	r.set("shardrpc.overhead_ms", dist.median()-sh.median(), "ms")
	r.set("shardrpc.jobs", float64(last.remoteJobs), "count")
	r.set("shardrpc.retries", float64(last.retries), "count")

	probeStages(r, fx.isl, fx.refIsl)
	probeKernels(r, fx.usf, fx.isl)

	// The serving layers, on a memory-only host holding the islands model
	// the pass mines, with seeded query vertices.
	rfx, err := setupRead(nil)
	if err != nil {
		return err
	}
	defer rfx.close()
	rng := rand.New(rand.NewSource(cfg.seed))
	st := buildReadSteps(rng, ladder[:1], []int{2 * probeReps}, rfx.snap.Graph.NumVertices())[0]
	rfx.warm(r, st.reqs)
	probeServing(r, rfx.host, rfx.ns, rfx.snap, st.reqs)
	probeScrape(r, rfx.hc, rfx.http.url)
	return nil
}

// probeStages reports the stage split of three cold cached mines of g
// through the public observer, checking each model against ref.
func probeStages(r *report, g *graph.Graph, ref []byte) {
	stages := map[string]*sample{}
	for i := 0; i < 3; i++ {
		m := icspm.MineShardedCachedObserved(g, icspm.Options{Shards: 4, CollectStats: true}, nil,
			func(stage string, d time.Duration) {
				if stages[stage] == nil {
					stages[stage] = &sample{}
				}
				stages[stage].addDur(d)
			})
		r.attempt("mine", 1)
		if got, err := modelJSON(m); err != nil || !bytes.Equal(got, ref) {
			r.fail("mine", "observed cached mine differs from the reference model")
		}
	}
	setStages(r, stages)
}

// setSearchCounters reports the search's work: gain evaluations, accepted
// merges, and merges per thousand evaluations.
func setSearchCounters(r *report, evals, merges float64) {
	r.set("cspm.gain_evals", evals, "count")
	r.set("cspm.merges", merges, "count")
	r.set("cspm.merges_per_keval", 1000*merges/evals, "count")
}

// setStages reports the cached miner's stage medians.
func setStages(r *report, stages map[string]*sample) {
	for _, st := range []string{"fingerprint", "diff", "shard_mine", "merge"} {
		s := stages[st]
		if s == nil {
			r.fail("trace", "no %s stage observed", st)
			continue
		}
		r.set("cspm.stage."+st+"_ms", s.median(), "ms")
	}
}

// probeKernels times the bottom layers from outside: invdb.FromGraph on the
// pass graphs, EvalMerge over each DB's co-occurring pair sweep, and the
// fused intset kernel on operand triples read from the DBs' lines.
func probeKernels(r *report, gs ...*graph.Graph) {
	var build sample
	var dbs []*invdb.DB
	for rep := 0; rep < 3; rep++ {
		t := time.Now()
		dbs = dbs[:0]
		for _, g := range gs {
			dbs = append(dbs, invdb.FromGraph(g))
		}
		build.addDur(time.Since(t))
	}
	r.set("invdb.build_ms", build.median(), "ms")

	type pair struct{ x, y invdb.LeafsetID }
	var evalNS, icdNS sample
	var triples [][3]intset.Set
	var pairsPerDB [][]pair
	for _, db := range dbs {
		seen := map[pair]bool{}
		var pairs []pair
		for c := 0; c < db.NumCoresets(); c++ {
			core := invdb.CoresetID(c)
			ids := db.LeafsetIDsOf(core)
			for i := 0; i < len(ids); i++ {
				for j := i + 1; j < len(ids); j++ {
					p := pair{ids[i], ids[j]}
					if !seen[p] {
						seen[p] = true
						pairs = append(pairs, p)
					}
				}
			}
			// Triples: two lines of the coreset and, as the collision line,
			// the next one (or the coreset's positions when it has two).
			lines := db.LinesOf(core)
			for i := 0; i+1 < len(ids) && len(triples) < 200_000; i++ {
				z := db.CorePositions(core)
				if i+2 < len(ids) {
					z = lines[ids[i+2]].Pos
				}
				triples = append(triples, [3]intset.Set{lines[ids[i]].Pos, lines[ids[i+1]].Pos, z})
			}
		}
		pairsPerDB = append(pairsPerDB, pairs)
	}
	for rep := 0; rep < 5; rep++ {
		n := 0
		t := time.Now()
		for i, db := range dbs {
			for _, p := range pairsPerDB[i] {
				db.EvalMerge(p.x, p.y)
				n++
			}
		}
		evalNS.add(float64(time.Since(t).Nanoseconds()) / float64(n))
		t = time.Now()
		for _, tri := range triples {
			a, b := intset.IntersectCountAndDiffCount(tri[0], tri[1], tri[2])
			kernelSink += a + b
		}
		icdNS.add(float64(time.Since(t).Nanoseconds()) / float64(len(triples)))
	}
	r.set("invdb.evalmerge_ns", evalNS.median(), "ns")
	r.set("intset.icd_ns", icdNS.median(), "ns")
	pairs := 0
	for _, ps := range pairsPerDB {
		pairs += len(ps)
	}
	diag("kernel_probe", map[string]int{"evalmerge_pairs": pairs, "icd_triples": len(triples)})
}

// kernelSink keeps the timed kernel calls from being optimised away.
var kernelSink int

// reportTrace writes the spans and prints each operation type's self-time
// breakdown against its untraced median: the tracing overhead, and whether
// the layers' self times add up to within 15% of the untraced median.
func reportTrace(cfg config, r *report, tr *tracer, untracedMS map[string]float64) {
	path, err := writeSpans(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed), tr.spans)
	if err != nil {
		r.fail("trace", "write spans: %v", err)
	}
	diag("spans", map[string]any{"file": path, "count": len(tr.spans)})
	for _, b := range decompose(tr.spans) {
		u, ok := untracedMS[b.Op]
		if !ok {
			diag("trace_breakdown", b)
			continue
		}
		diag("trace_breakdown", map[string]any{
			"op": b.Op, "count": b.Count, "self_ms": b.SelfMS, "self_sum_ms": b.SumMS,
			"traced_median_ms": b.MedianMS, "untraced_median_ms": u,
			"overhead_ms": b.MedianMS - u, "sum_vs_untraced": b.SumMS / u,
			"within_15pct": math.Abs(b.SumMS/u-1) <= 0.15,
		})
	}
}
