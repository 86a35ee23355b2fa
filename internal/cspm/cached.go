package cspm

import (
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"time"

	"cspm/internal/graph"
	"cspm/internal/mdl"
	"cspm/internal/shardcache"
)

// StageObserver receives the wall-clock duration of each internal phase of a
// cached mine: "fingerprint" (component fingerprinting), "diff" (cache
// lookup splitting clean from dirty groups), "shard_mine" (mining the dirty
// shards) and "merge" (exact model merge). The serving layer's re-mine
// profiler plugs in here; a plain function type (not an Options field) keeps
// Options gob-encodable for the shardrpc wire.
type StageObserver func(stage string, d time.Duration)

func (f StageObserver) observe(stage string, since time.Time) {
	if f != nil {
		f(stage, time.Since(since))
	}
}

// cachedSearchVersion stamps the search fingerprint with the mining
// algorithm's result format. Bump it whenever a change makes the search
// produce different results for the same (graph, options) — a gain-formula
// fix, a tie-break change, a new Options field that shapes results — so
// persistent caches written by older binaries invalidate instead of
// replaying stale models.
const cachedSearchVersion = 1

// searchFingerprint digests the options that change what a shard search
// produces — the variant, the per-shard iteration cap, and the model-cost
// ablation — so results mined under one configuration are never replayed
// into another. Workers and Shards only change scheduling (results are
// bit-identical by the determinism contract) and CollectStats only controls
// diagnostics, so they deliberately stay out of the key.
func searchFingerprint(opts Options) graph.Fingerprint {
	var buf [18]byte
	buf[0] = cachedSearchVersion
	binary.LittleEndian.PutUint64(buf[1:], uint64(opts.Variant))
	binary.LittleEndian.PutUint64(buf[9:], uint64(opts.MaxIterations))
	if opts.DisableModelCost {
		buf[17] = 1
	}
	return sha256.Sum256(buf[:])
}

// MineShardedCached mines g by attribute-closed component groups like
// MineSharded's component strategy, but consults cache before mining: groups
// whose fingerprint (together with the graph's global attribute context) has
// a cached shard result are replayed from the cache, and only dirty groups
// are re-mined. The merged model is bit-identical to Mine(g) whether every
// group, no group, or any subset came from the cache, because patterns and
// all reported description lengths are pure functions of the per-group line
// multisets the cache stores (see DESIGN.md "Shard-result cache").
//
// Options.Shards bounds how many dirty groups mine concurrently (0 = all
// cores) and Options.Workers is the total evaluation budget, exactly as in
// MineSharded. Options.MaxIterations caps each group's merges independently
// — like MineSharded and unlike Mine's single global cap, so capped runs
// match MineSharded, not Mine. Options.ShardStrategy is ignored: cached
// mining is always component-grained (the edge-cut strategy has no stable
// per-group unit to key). A nil cache mines through a private ephemeral
// cache, so the result contract is identical — only the reuse is lost. It
// panics if opts fails Validate.
func MineShardedCached(g *graph.Graph, opts Options, cache *shardcache.Cache) *Model {
	return MineShardedCachedObserved(g, opts, cache, nil)
}

// MineShardedCachedObserved is MineShardedCached with per-phase timing
// reported to observe (nil = no observation; the mining result is identical
// either way).
func MineShardedCachedObserved(g *graph.Graph, opts Options, cache *shardcache.Cache, observe StageObserver) *Model {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	if cache == nil {
		cache = shardcache.New(0)
	}
	t := time.Now()
	groups := graph.AttrClosedComponents(g)
	fps := groups.Fingerprints(g)
	global := graph.GlobalFingerprint(g)
	search := searchFingerprint(opts)
	observe.observe("fingerprint", t)
	st := mdl.NewStandardTable(g)
	members := groups.Members()

	t = time.Now()
	entries := make([]*shardcache.Entry, groups.Count)
	fresh := make([]bool, groups.Count)
	var dirty []int
	for gi := 0; gi < groups.Count; gi++ {
		if e, ok := cache.Get(shardcache.Key{Component: fps[gi], Global: global, Search: search}); ok {
			entries[gi] = e
		} else {
			fresh[gi] = true
			dirty = append(dirty, gi)
		}
	}
	observe.observe("diff", t)

	evBefore := cache.Stats().Evictions
	shards := make([]*shardRun, len(dirty))
	t = time.Now()
	if len(dirty) > 0 {
		// Entries must always carry the run diagnostics (a warm replay still
		// reports Iterations), so dirty runs collect stats unconditionally;
		// PerIter is surfaced only when the caller asked.
		runOpts := opts
		runOpts.CollectStats = true
		for i, gi := range dirty {
			shards[i] = &shardRun{verts: members[gi]}
		}
		k := opts.Shards
		if k == 0 {
			k = runtime.GOMAXPROCS(0)
		}
		runShards(g, st, runOpts, shards, k)
		for i, gi := range dirty {
			sh := shards[i]
			e := newEntry(sh.init, sh.final, sh.stats)
			// A failed disk write only loses persistence (the in-memory copy
			// is already stored); mining correctness is unaffected.
			_ = cache.Put(shardcache.Key{Component: fps[gi], Global: global, Search: search}, e)
			entries[gi] = e
		}
	}
	observe.observe("shard_mine", t)

	t = time.Now()
	m := &Model{Vocab: g.Vocab(), ShardCount: len(dirty)}
	m.CacheHits = groups.Count - len(dirty)
	m.CacheMisses = len(dirty)
	m.CacheEvictions = int(cache.Stats().Evictions - evBefore)
	for gi, e := range entries {
		if !fresh[gi] {
			// Replayed groups contribute their recorded diagnostics; fresh
			// runs contribute theirs through appendShardStats below.
			m.Iterations += e.Iterations
			m.GainEvals += e.GainEvals
		}
	}
	for i := range shards {
		if !opts.CollectStats {
			shards[i].stats.perIter = nil
		}
		appendShardStats(m, shards[i].stats, i, false)
	}
	mergeEntryStats(m, st, entries)
	observe.observe("merge", t)
	return m
}

// Miner bundles mining options with a shard-result cache for repeated runs
// over evolving graphs: each Mine call re-mines only the component groups
// whose content changed since the cache last saw them.
type Miner struct {
	opts  Options
	cache *shardcache.Cache
}

// NewMiner validates opts and returns a Miner backed by cache (nil = a fresh
// unbounded in-memory cache).
func NewMiner(opts Options, cache *shardcache.Cache) (*Miner, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if cache == nil {
		cache = shardcache.New(0)
	}
	return &Miner{opts: opts, cache: cache}, nil
}

// Mine runs MineShardedCached over the miner's cache.
func (mi *Miner) Mine(g *graph.Graph) *Model {
	return MineShardedCached(g, mi.opts, mi.cache)
}

// Cache exposes the miner's shard-result cache (for stats and invalidation).
func (mi *Miner) Cache() *shardcache.Cache { return mi.cache }
