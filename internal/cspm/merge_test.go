package cspm

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cspm/internal/dataset"
	"cspm/internal/graph"
	"cspm/internal/invdb"
	"cspm/internal/mdl"
	"cspm/internal/shardcache"
)

// cachedEntries mines g through cache and returns its groups' entries in
// group order, as MineShardedCached merged them.
func cachedEntries(t testing.TB, g *graph.Graph, opts Options, cache *shardcache.Cache) []*shardcache.Entry {
	t.Helper()
	MineShardedCached(g, opts, cache)
	groups := graph.AttrClosedComponents(g)
	fps := groups.Fingerprints(g)
	global := graph.GlobalFingerprint(g)
	search := searchFingerprint(opts)
	entries := make([]*shardcache.Entry, groups.Count)
	for gi := range entries {
		e, ok := cache.Get(shardcache.Key{Component: fps[gi], Global: global, Search: search})
		if !ok {
			t.Fatalf("group %d missing from the cache after a mine", gi)
		}
		entries[gi] = e
	}
	return entries
}

// unmemoized copies e without its merge summary, as a blob decoded from
// disk or the wire arrives.
func unmemoized(e *shardcache.Entry) *shardcache.Entry {
	return &shardcache.Entry{Init: e.Init, Final: e.Final, Iterations: e.Iterations, GainEvals: e.GainEvals}
}

// requireSameModel compares everything mergeEntryStats produces, floats by
// their bits.
func requireSameModel(t *testing.T, got, want *Model) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want float64
	}{{"BaselineDL", got.BaselineDL, want.BaselineDL}, {"FinalDL", got.FinalDL, want.FinalDL}, {"CondEntropy", got.CondEntropy, want.CondEntropy}} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("%s = %v (%#x), full merge %v (%#x)", f.name, f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
		}
	}
	if len(got.Patterns) != len(want.Patterns) || (got.Patterns == nil) != (want.Patterns == nil) {
		t.Fatalf("%d patterns (nil %v), full merge %d (nil %v)", len(got.Patterns), got.Patterns == nil, len(want.Patterns), want.Patterns == nil)
	}
	for i := range got.Patterns {
		p, q := got.Patterns[i], want.Patterns[i]
		if !reflect.DeepEqual(p.CoreValues, q.CoreValues) || !reflect.DeepEqual(p.LeafValues, q.LeafValues) ||
			p.FL != q.FL || p.FC != q.FC || math.Float64bits(p.CodeLen) != math.Float64bits(q.CodeLen) {
			t.Fatalf("pattern %d = %+v, full merge %+v", i, p, q)
		}
	}
}

// checkMerge asserts that the k-way merge takes its fast path on entries
// and matches the full merge bit for bit.
func checkMerge(t *testing.T, st *mdl.StandardTable, entries []*shardcache.Entry) {
	t.Helper()
	want, got := &Model{}, &Model{}
	mergeEntryStatsFull(want, st, entries)
	if !mergeSummaries(got, st, entries) {
		t.Fatal("attribute-closed groups fell back to the full merge")
	}
	requireSameModel(t, got, want)
}

// TestMergeMatchesFull pins the k-way merge to the full merge on real
// mining output, for entries merged for the first time (cold), one fresh
// entry among memoized ones (the one-dirty-group re-mine) and all memoized
// (warm).
func TestMergeMatchesFull(t *testing.T) {
	planted, _ := dataset.Planted(dataset.DefaultPlanted())
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"DefaultIslands", dataset.Islands(dataset.DefaultIslands())},
		{"BenchIslands", dataset.Islands(dataset.BenchIslands())},
		{"Planted", planted},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "BenchIslands" && testing.Short() {
				t.Skip("BenchIslands mines ~13k vertices")
			}
			st := mdl.NewStandardTable(tc.g)
			warm := cachedEntries(t, tc.g, Options{}, shardcache.New(0))
			cold := make([]*shardcache.Entry, len(warm))
			for i, e := range warm {
				cold[i] = unmemoized(e)
			}
			t.Run("cold", func(t *testing.T) { checkMerge(t, st, cold) })
			t.Run("warm", func(t *testing.T) { checkMerge(t, st, warm) })
			t.Run("1-dirty", func(t *testing.T) {
				mixed := append([]*shardcache.Entry(nil), warm...)
				mixed[len(mixed)/2] = unmemoized(mixed[len(mixed)/2])
				checkMerge(t, st, mixed)
			})
			// Groups in reverse: their value ids no longer ascend with
			// the group order, so the id walks must interleave them.
			t.Run("reversed", func(t *testing.T) {
				rev := slices.Clone(warm)
				slices.Reverse(rev)
				checkMerge(t, st, rev)
			})
		})
	}
}

// TestMergeConcurrentFirstUse merges the same fresh entries from several
// goroutines at once, so their summaries are derived concurrently.
func TestMergeConcurrentFirstUse(t *testing.T) {
	g := dataset.Islands(dataset.DefaultIslands())
	st := mdl.NewStandardTable(g)
	var entries []*shardcache.Entry
	for _, e := range cachedEntries(t, g, Options{}, shardcache.New(0)) {
		entries = append(entries, unmemoized(e))
	}
	want := &Model{}
	mergeEntryStatsFull(want, st, entries)
	got := make([]*Model, 8)
	var wg sync.WaitGroup
	for i := range got {
		got[i] = &Model{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			mergeEntryStats(got[i], st, entries)
		}()
	}
	wg.Wait()
	for _, m := range got {
		requireSameModel(t, m, want)
	}
}

// TestMergeIncrementalReMine runs the merge inside real re-mines where one
// island's edges changed, against the uncached miner.
func TestMergeIncrementalReMine(t *testing.T) {
	cfg := dataset.DefaultIslands()
	cache := shardcache.New(0)
	for i := range 3 {
		g := dataset.IslandsWithEdgeSeeds(cfg, []int64{int64(100 + i)})
		got := MineShardedCached(g, Options{}, cache)
		if i > 0 && got.CacheMisses != 1 {
			t.Fatalf("re-mine %d: %d misses, want 1", i, got.CacheMisses)
		}
		want := MineWithOptions(g, Options{})
		requireSameModel(t, got, want)
	}
}

// TestMergeFallsBackOnSharedCore files one group's entry twice, so two
// entries share every core: the merge must take the full path.
func TestMergeFallsBackOnSharedCore(t *testing.T) {
	g := dataset.Islands(dataset.DefaultIslands())
	st := mdl.NewStandardTable(g)
	entries := cachedEntries(t, g, Options{}, shardcache.New(0))
	entries[0] = entries[1]
	if mergeSummaries(&Model{}, st, entries) {
		t.Fatal("entries sharing cores took the k-way merge")
	}
	want, got := &Model{}, &Model{}
	mergeEntryStatsFull(want, st, entries)
	mergeEntryStats(got, st, entries)
	requireSameModel(t, got, want)
}

// randomStats draws lines over the given sorted values: cores and leaf
// values from them, leafsets possibly empty.
func randomStats(rng *rand.Rand, vals []int, lines int) []invdb.LineStat {
	out := make([]invdb.LineStat, 0, lines)
	for range lines {
		var leaf []graph.AttrID
		for _, v := range vals {
			if rng.Intn(3) == 0 {
				leaf = append(leaf, graph.AttrID(v))
			}
		}
		out = append(out, invdb.LineStat{
			Core: invdb.CoresetID(vals[rng.Intn(len(vals))]),
			Leaf: leaf,
			FL:   1 + rng.Intn(20),
		})
	}
	return out
}

// FuzzMergeEntryStats compares the k-way merge with the full merge on
// random groups: attribute-closed or overlapping, one or several, with
// values interleaved across groups, empty leafsets, duplicate lines and
// non-canonical line order (as older binaries wrote entries), and with
// summaries derived under a different standard table than the merge
// prices with.
func FuzzMergeEntryStats(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		for _, flags := range []uint8{0, 1, 2, 4, 7} {
			f.Add(seed, uint8(3), flags)
		}
	}
	f.Add(int64(9), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, groups, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(groups)%6
		overlap, canonical, otherTable := flags&1 != 0, flags&2 == 0, flags&4 != 0
		width := 1 + rng.Intn(6)
		perm := rng.Perm(k * width)
		entries := make([]*shardcache.Entry, k)
		for i := range entries {
			vals := slices.Clone(perm[i*width : (i+1)*width])
			if overlap && i > 0 && rng.Intn(2) == 0 {
				vals[0] = perm[rng.Intn(i*width)] // a value of an earlier group
			}
			slices.Sort(vals)
			init, final := randomStats(rng, vals, rng.Intn(12)), randomStats(rng, vals, rng.Intn(8))
			if canonical {
				init, final = invdb.NormalizeLineStats(init), invdb.NormalizeLineStats(final)
			}
			entries[i] = &shardcache.Entry{Init: init, Final: final}
		}
		table := func() *mdl.StandardTable {
			freq := make([]int, k*width)
			for i := range freq {
				freq[i] = rng.Intn(5) // zeros give +Inf code lengths
			}
			return mdl.NewStandardTableFromFreqs(freq)
		}
		st := table()
		if otherTable {
			for _, e := range entries {
				summaryOf(e, table())
			}
		}
		want, got := &Model{}, &Model{}
		mergeEntryStatsFull(want, st, entries)
		mergeEntryStats(got, st, entries)
		requireSameModel(t, got, want)
		if !overlap && !otherTable && !mergeSummaries(&Model{}, st, entries) {
			t.Fatal("disjoint groups fell back to the full merge")
		}
	})
}

// BenchmarkMergeEntryStats prices the merge tail of a BenchIslands re-mine:
// warm (every summary memoized), cold (none: every entry merged for the
// first time) and full (the merge by concatenation).
func BenchmarkMergeEntryStats(b *testing.B) {
	g := dataset.Islands(dataset.BenchIslands())
	st := mdl.NewStandardTable(g)
	entries := cachedEntries(b, g, Options{}, shardcache.New(0))
	for _, mode := range []string{"warm", "cold", "full"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				m := &Model{}
				switch mode {
				case "warm":
					mergeEntryStats(m, st, entries)
				case "cold":
					fresh := make([]*shardcache.Entry, len(entries))
					for i, e := range entries {
						fresh[i] = unmemoized(e)
					}
					mergeEntryStats(m, st, fresh)
				case "full":
					mergeEntryStatsFull(m, st, entries)
				}
				if len(m.Patterns) == 0 {
					b.Fatalf("%s merge produced no patterns", mode)
				}
			}
		})
	}
}
