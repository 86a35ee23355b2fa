package cspm

import (
	"crypto/sha256"
	"encoding/binary"
	"time"

	"cspm/internal/graph"
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
// It runs the same group pipeline as MineSharded's component strategy and
// MineDistributed, with the same semantics: Options.Shards bounds how many
// dirty groups mine concurrently (0 = all cores) and Options.Workers is the
// total evaluation budget. Options.MaxIterations caps each group's merges
// independently — unlike Mine's single global cap, so capped runs match
// MineSharded, not Mine. Model.ShardCount is the number of groups re-mined
// (0 when every group replayed), and Iterations and GainEvals cover replayed
// groups too. Options.ShardStrategy is ignored: cached mining is always
// component-grained (the edge-cut strategy has no stable per-group unit to
// key). A nil cache mines through a private ephemeral cache, so the result
// contract is identical — only the reuse is lost. It panics if opts fails
// Validate.
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
	m, _ := mineGroups(g, DistributedOptions{Options: opts, Cache: cache}, false, observe) // local runs cannot fail
	return m
}
