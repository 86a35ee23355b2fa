package cspm

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"cspm/internal/dataset"
	"cspm/internal/graph"
	"cspm/internal/shardcache"
)

// TestComponentEntryPointsAgree pins that the component entry points run one
// pipeline: MineSharded's component strategy, MineShardedCached with a nil
// cache and then warm, MineShardedCachedObserved and MineDistributed over
// its loopback pool report the same model and the same run counters under
// an iteration cap, any concurrency bound, and with stats collection off.
func TestComponentEntryPointsAgree(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"default", dataset.Islands(dataset.DefaultIslands())},
		{"seeded", dataset.Islands(dataset.IslandsConfig{
			Seed: 7, Islands: 5, MinNodes: 15, MaxNodes: 50,
			AttrsPerIsland: 7, ExtraEdges: 1.0, AttrsPerNode: 3,
		})},
	}
	for _, tg := range graphs {
		groups := graph.AttrClosedComponents(tg.g).Count
		for _, maxIter := range []int{0, 3} {
			for _, shards := range []int{2, 8} {
				for _, stats := range []bool{true, false} {
					opts := Options{MaxIterations: maxIter, Shards: shards, CollectStats: stats}
					label := fmt.Sprintf("%s/maxiter=%d/shards=%d/stats=%v", tg.name, maxIter, shards, stats)
					ref := MineSharded(tg.g, opts)
					if ref.ShardCount != groups || ref.Iterations == 0 {
						t.Fatalf("%s: MineSharded ran %d searches with %d merges, want %d searches and merges",
							label, ref.ShardCount, ref.Iterations, groups)
					}

					cache := shardcache.New(0)
					MineShardedCached(tg.g, opts, cache)
					warm := MineShardedCached(tg.g, opts, cache)
					if warm.ShardCount != 0 || warm.CacheHits != groups {
						t.Fatalf("%s: warm run mined %d groups with %d hits, want 0 and %d",
							label, warm.ShardCount, warm.CacheHits, groups)
					}
					warm.ShardCount = groups // replays run no search; everything else agrees

					var stages int
					observed := MineShardedCachedObserved(tg.g, opts, nil, func(string, time.Duration) { stages++ })
					if stages != 4 {
						t.Fatalf("%s: observer saw %d stages, want 4", label, stages)
					}
					dist, err := MineDistributed(tg.g, DistributedOptions{Options: opts})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					for _, run := range []struct {
						name string
						m    *Model
					}{
						{"cached/nil", MineShardedCached(tg.g, opts, nil)},
						{"cached/warm", warm},
						{"observed", observed},
						{"distributed", dist},
					} {
						assertEntryPointsAgree(t, label+"/"+run.name, run.m, ref)
					}
				}
			}
		}
	}
}

func assertEntryPointsAgree(t *testing.T, label string, got, want *Model) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"BaselineDL", got.BaselineDL, want.BaselineDL},
		{"FinalDL", got.FinalDL, want.FinalDL},
		{"CondEntropy", got.CondEntropy, want.CondEntropy},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("%s: %s %v, MineSharded reports %v", label, f.name, f.got, f.want)
		}
	}
	if got.Iterations != want.Iterations || got.ShardCount != want.ShardCount {
		t.Fatalf("%s: %d merges over %d searches, MineSharded reports %d over %d",
			label, got.Iterations, got.ShardCount, want.Iterations, want.ShardCount)
	}
	if !reflect.DeepEqual(got.Patterns, want.Patterns) {
		t.Fatalf("%s: pattern lists differ (%d vs %d patterns)", label, len(got.Patterns), len(want.Patterns))
	}
}
