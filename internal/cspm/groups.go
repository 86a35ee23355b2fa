package cspm

import (
	"slices"
	"time"

	"cspm/internal/graph"
	"cspm/internal/mdl"
	"cspm/internal/shardcache"
	"cspm/internal/shardrpc"
)

// mineGroups is the component-group pipeline behind MineSharded's component
// strategy, MineShardedCached and MineDistributed: one search per
// attribute-closed component group, merged exactly. With opts.Cache set it
// fingerprints the groups and replays every group whose key hits; the
// remaining (dirty) groups are mined, stored back, and merged together with
// the replays by mergeEntryStats. Dirty groups run in-process through
// runShards, Options.Shards bounding how many run at once — or, when remote
// is set, as shard jobs over opts.Transport (nil = an in-process loopback
// pool), where jobs that exhaust their attempts fall back to the same local
// runner unless NoFallback turns them into a *DistributedError.
//
// Every entry point therefore shares one set of semantics: ShardCount is
// the number of group searches run, MaxIterations caps each group,
// Iterations and GainEvals are always reported, PerIter (with CollectStats)
// traces the groups mined in-process, and the cache counters stay 0 without
// a cache. The caller validates opts.
func mineGroups(g *graph.Graph, opts DistributedOptions, remote bool, observe StageObserver) (*Model, error) {
	cache := opts.Cache
	t := time.Now()
	groups := graph.AttrClosedComponents(g)
	var keys []shardcache.Key
	if cache != nil {
		fps := groups.Fingerprints(g)
		global := graph.GlobalFingerprint(g)
		search := searchFingerprint(opts.Options)
		keys = make([]shardcache.Key, groups.Count)
		for gi := range keys {
			keys[gi] = shardcache.Key{Component: fps[gi], Global: global, Search: search}
		}
	}
	observe.observe("fingerprint", t)
	st := mdl.NewStandardTable(g)
	members := groups.Members()

	t = time.Now()
	entries := make([]*shardcache.Entry, groups.Count)
	var dirty []int
	for gi := range entries {
		if cache != nil {
			if e, ok := cache.Get(keys[gi]); ok {
				entries[gi] = e
				continue
			}
		}
		dirty = append(dirty, gi)
	}
	observe.observe("diff", t)

	m := &Model{Vocab: g.Vocab(), ShardCount: len(dirty)}
	var evBefore uint64
	if cache != nil {
		m.CacheHits = groups.Count - len(dirty)
		m.CacheMisses = len(dirty)
		evBefore = cache.Stats().Evictions
	}
	t = time.Now()
	local := dirty
	if remote {
		m.RemoteJobs = len(dirty)
		local = nil
		if len(dirty) > 0 {
			transport, jobOpts := opts.Transport, opts
			if transport == nil {
				// The in-process pool shares the coordinator's cores, so the
				// evaluation budget is split across the concurrent jobs the
				// way runShards splits it. Remote transports keep the unsplit
				// budget: their workers' cores are not ours. Results are
				// bit-identical for any Workers value.
				pool := min(opts.shardBound(), len(dirty))
				lb := shardrpc.NewLoopback(ExecuteShardJob, pool)
				defer lb.Close()
				transport = lb
				jobOpts.Workers = max(1, opts.workerCount()/pool)
			}
			failed := collectRemote(transport, g, st.Freqs(), jobOpts, dirty, members, entries, m)
			if len(failed) > 0 && opts.NoFallback {
				return nil, &DistributedError{Jobs: failed}
			}
			for _, f := range failed {
				local = append(local, f.Group)
			}
			slices.Sort(local) // failure order is timing; run order is not
			m.LocalFallbacks = len(failed)
		}
	}
	runs := make([]*shardRun, len(local))
	if len(local) > 0 {
		// Entries must always carry the run diagnostics (a warm replay still
		// reports Iterations), so local runs collect stats unconditionally.
		runOpts := opts.Options
		runOpts.CollectStats = true
		for i, gi := range local {
			runs[i] = &shardRun{verts: members[gi]}
		}
		runShards(g, st, runOpts, runs, opts.shardBound())
		for i, gi := range local {
			entries[gi] = newEntry(runs[i].init, runs[i].final, runs[i].stats)
		}
	}
	if cache != nil {
		for _, gi := range dirty {
			// A failed disk write only loses persistence (the in-memory copy
			// is already stored); mining correctness is unaffected.
			_ = cache.Put(keys[gi], entries[gi])
		}
		m.CacheEvictions = int(cache.Stats().Evictions - evBefore)
	}
	observe.observe("shard_mine", t)

	t = time.Now()
	for _, e := range entries {
		m.Iterations += e.Iterations
		m.GainEvals += e.GainEvals
	}
	if opts.CollectStats {
		for i, r := range runs {
			// The totals came from the entries; only the trace is appended.
			appendShardStats(m, &runStats{perIter: r.stats.perIter}, i, false)
		}
	}
	mergeEntryStats(m, st, entries)
	observe.observe("merge", t)
	return m, nil
}
