package completion

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"cspm/internal/cspm"
	"cspm/internal/dataset"
	"cspm/internal/graph"
)

// scoreNodeScan is Algorithm 5 as a full scan: every a-star of the model is
// scored against a fresh neighbour-value map. It is the oracle the indexed
// Scorer.ScoreNode must match bit for bit.
func scoreNodeScan(model *cspm.Model, g *graph.Graph, v graph.VertexID) []float64 {
	scores := make([]float64, g.NumAttrValues())
	for i := range scores {
		scores[i] = math.Inf(-1)
	}
	neighbors := make(map[graph.AttrID]struct{})
	for _, u := range g.Neighbors(v) {
		for _, a := range g.Attrs(u) {
			neighbors[a] = struct{}{}
		}
	}
	for _, p := range model.Patterns {
		match := 0.0
		if len(p.LeafValues) > 0 {
			hit := 0
			for _, a := range p.LeafValues {
				if _, ok := neighbors[a]; ok {
					hit++
				}
			}
			match = float64(hit) / float64(len(p.LeafValues))
		}
		w := 2 - match
		cl := -w * p.CodeLen
		for _, cv := range p.CoreValues {
			if cl > scores[cv] {
				scores[cv] = cl
			}
		}
	}
	return scores
}

// sameBits reports the first attribute value whose indexed and scanned
// scores differ in their bit patterns, or -1.
func sameBits(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

func checkAgainstScan(t *testing.T, sc *Scorer, model *cspm.Model, g *graph.Graph, vertices []graph.VertexID) {
	t.Helper()
	for _, v := range vertices {
		got, want := sc.ScoreNode(v), scoreNodeScan(model, g, v)
		if i := sameBits(got, want); i >= 0 {
			if len(got) != len(want) {
				t.Fatalf("vertex %d: %d scores, scan gives %d", v, len(got), len(want))
			}
			t.Fatalf("vertex %d value %d: indexed %v (%#x), scan %v (%#x)",
				v, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func allVertices(g *graph.Graph) []graph.VertexID {
	out := make([]graph.VertexID, g.NumVertices())
	for i := range out {
		out[i] = graph.VertexID(i)
	}
	return out
}

var (
	benchIslandsOnce  sync.Once
	benchIslandsGraph *graph.Graph
	benchIslandsModel *cspm.Model
)

// benchIslands mines the BenchIslands archipelago once per test binary; the
// sharded mine is bit-identical to cspm.Mine and several times faster.
func benchIslands() (*cspm.Model, *graph.Graph) {
	benchIslandsOnce.Do(func() {
		benchIslandsGraph = dataset.Islands(dataset.BenchIslands())
		benchIslandsModel = cspm.MineSharded(benchIslandsGraph, cspm.Options{Shards: 4})
	})
	return benchIslandsModel, benchIslandsGraph
}

func TestScoreNodeMatchesScan(t *testing.T) {
	t.Run("islands", func(t *testing.T) {
		g := dataset.Islands(dataset.DefaultIslands())
		model := cspm.Mine(g)
		checkAgainstScan(t, NewScorer(model, g), model, g, allVertices(g))
	})
	t.Run("bench_islands", func(t *testing.T) {
		// The scan costs milliseconds per vertex on this model, so every
		// 16th vertex is checked: still ~800 vertices across all islands.
		model, g := benchIslands()
		var vs []graph.VertexID
		for v := 0; v < g.NumVertices(); v += 16 {
			vs = append(vs, graph.VertexID(v))
		}
		checkAgainstScan(t, NewScorer(model, g), model, g, vs)
	})
	t.Run("planted", func(t *testing.T) {
		g, _ := dataset.Planted(dataset.DefaultPlanted())
		model := cspm.Mine(g)
		checkAgainstScan(t, NewScorer(model, g), model, g, allVertices(g))
	})
	t.Run("citation_train", func(t *testing.T) {
		tg := smallTask(t).TrainGraph()
		model := cspm.Mine(tg)
		checkAgainstScan(t, NewScorer(model, tg), model, tg, allVertices(tg))
	})
}

func TestScoreNodeEdgeCases(t *testing.T) {
	// Values a..f; vertex 0 is isolated, vertex 1's neighbours 2 and 3 carry
	// {a, b} and {c}. Value f is never a core.
	b := graph.NewBuilder(4)
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		b.Vocab().ID(name)
	}
	_ = b.AddAttr(2, "a")
	_ = b.AddAttr(2, "b")
	_ = b.AddAttr(3, "c")
	_ = b.AddAttr(1, "f")
	_ = b.AddEdge(1, 2)
	_ = b.AddEdge(1, 3)
	g := b.Build()
	nA := graph.AttrID(g.NumAttrValues())
	model := &cspm.Model{Patterns: []cspm.AStar{
		{CoreValues: []graph.AttrID{0}, LeafValues: []graph.AttrID{1, 2}, CodeLen: 3},
		{CoreValues: []graph.AttrID{0, 3}, LeafValues: []graph.AttrID{4}, CodeLen: 1.5},
		// Empty leafset: only ever the floor term.
		{CoreValues: []graph.AttrID{4}, LeafValues: nil, CodeLen: 2},
		// Leaf values outside the vocabulary count in |leaf| but never hit.
		{CoreValues: []graph.AttrID{4}, LeafValues: []graph.AttrID{0, nA, nA + 7}, CodeLen: 0.5},
		{CoreValues: []graph.AttrID{1}, LeafValues: []graph.AttrID{0, 2}, CodeLen: 4},
	}}
	sc := NewScorer(model, g)
	checkAgainstScan(t, sc, model, g, allVertices(g))

	isolated := sc.ScoreNode(0)
	if isolated[0] != -3 || isolated[3] != -3 || isolated[4] != -1 {
		t.Fatalf("isolated vertex should score the floor, got %v", isolated)
	}
	near := sc.ScoreNode(1)
	f, _ := g.Vocab().Lookup("f")
	if !math.IsInf(near[f], -1) || !math.IsInf(isolated[f], -1) {
		t.Fatalf("a value that is never a core must stay -Inf, got %v / %v", near[f], isolated[f])
	}
	// Core a: pattern 0 hits both leaves {b, c} → w = 1 → −3.
	if near[0] != -3 {
		t.Fatalf("core a scored %v, want -3", near[0])
	}
	// Core e: pattern 3 hits one of three leaves → w = 5/3 → −5/6 beats −4.
	hit, leafLen := 1.0, 3.0
	if want := -(2 - hit/leafLen) * 0.5; near[4] != want {
		t.Fatalf("core e scored %v, want %v", near[4], want)
	}

	// A core outside the vocabulary has no score to update (the scan would
	// index past its row); the a-star still scores its in-vocabulary cores.
	stray := &cspm.Model{Patterns: []cspm.AStar{
		{CoreValues: []graph.AttrID{2, nA, -1}, LeafValues: []graph.AttrID{0}, CodeLen: 1},
	}}
	if got := NewScorer(stray, g).ScoreNode(1); got[2] != -1 {
		t.Fatalf("core c scored %v, want -1", got[2])
	}
}

// TestScoreNodeConcurrent shares one Scorer between goroutines, as every
// request on a served snapshot does; run it under -race.
func TestScoreNodeConcurrent(t *testing.T) {
	g := dataset.Islands(dataset.DefaultIslands())
	model := cspm.Mine(g)
	sc := NewScorer(model, g)
	want := make([][]float64, g.NumVertices())
	for v := range want {
		want[v] = scoreNodeScan(model, g, graph.VertexID(v))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3*len(want); i++ {
				v := (i*7 + w*31) % len(want)
				if j := sameBits(sc.ScoreNode(graph.VertexID(v)), want[v]); j >= 0 {
					t.Errorf("worker %d: vertex %d value %d diverged from the scan", w, v, j)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzScoreNode checks the index against the scan on random small graphs
// and random a-stars: cores inside the vocabulary, leaves that may repeat a
// value or fall outside it, code lengths that may be zero or negative.
func FuzzScoreNode(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(5), uint8(6))
	f.Add(int64(2), uint8(1), uint8(1), uint8(0))
	f.Add(int64(3), uint8(30), uint8(12), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, nV, nA, nP uint8) {
		rng := rand.New(rand.NewSource(seed))
		n, na := int(nV)%40+1, int(nA)%20+1
		b := graph.NewBuilder(n)
		for a := 0; a < na; a++ {
			b.Vocab().ID(string(rune('a' + a)))
		}
		for v := 0; v < n; v++ {
			for k := rng.Intn(4); k > 0; k-- {
				_ = b.AddAttrID(graph.VertexID(v), graph.AttrID(rng.Intn(na)))
			}
			for k := rng.Intn(4); k > 0; k-- {
				if u := rng.Intn(n); u != v {
					_ = b.AddEdge(graph.VertexID(v), graph.VertexID(u))
				}
			}
		}
		g := b.Build()
		model := &cspm.Model{}
		for i := 0; i < int(nP)%64; i++ {
			p := cspm.AStar{CodeLen: float64(rng.Intn(41)-5) / 4}
			for k := rng.Intn(3) + 1; k > 0; k-- {
				p.CoreValues = append(p.CoreValues, graph.AttrID(rng.Intn(na)))
			}
			for k := rng.Intn(5); k > 0; k-- {
				p.LeafValues = append(p.LeafValues, graph.AttrID(rng.Intn(na+3)-1))
			}
			model.Patterns = append(model.Patterns, p)
		}
		checkAgainstScan(t, NewScorer(model, g), model, g, allVertices(g))
	})
}

// BenchmarkScoreNode compares the indexed scorer with the full scan on the
// BenchIslands model, cycling through every vertex of the graph.
func BenchmarkScoreNode(b *testing.B) {
	model, g := benchIslands()
	n := g.NumVertices()
	b.Run("indexed", func(b *testing.B) {
		sc := NewScorer(model, g)
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			sc.ScoreNode(graph.VertexID(i % n))
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			scoreNodeScan(model, g, graph.VertexID(i%n))
		}
	})
}
