package serve

import (
	"bytes"
	"reflect"
	"testing"

	"cspm/internal/dataset"
	"cspm/internal/graph"
)

// reintern rebuilds g so its vocabulary is interned in exactly the given
// name order (then any value of g missing from order, which a consistent
// checkpoint never has). It is how recovery re-interned a parsed checkpoint
// graph before graph.LoadWithVocab seeded the vocabulary during the parse,
// and stays as that loader's oracle.
func reintern(g *graph.Graph, order []string) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices())
	vocab := b.Vocab()
	for _, name := range order {
		vocab.ID(name)
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, a := range g.Attrs(graph.VertexID(v)) {
			// Vertices are in range by construction; AddAttr cannot fail.
			_ = b.AddAttr(graph.VertexID(v), g.Vocab().Name(a))
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			if graph.VertexID(v) < u {
				_ = b.AddEdge(graph.VertexID(v), u)
			}
		}
	}
	return b.Build()
}

// TestLoadWithVocabMatchesReintern pins the checkpoint loader to its
// oracle: parsing checkpoint bytes with the vocabulary seeded yields the
// graph that parsing and then re-interning yields — same vocabulary order,
// attributes, edges and fingerprints — including for a graph whose
// vocabulary keeps ids of values no vertex carries any more.
func TestLoadWithVocabMatchesReintern(t *testing.T) {
	islands := dataset.Islands(dataset.DefaultIslands())
	// Deleting every occurrence of a value leaves its id in the vocabulary.
	var dels []Mutation
	victim := islands.Attrs(0)[0]
	for v := 0; v < islands.NumVertices(); v++ {
		for _, a := range islands.Attrs(graph.VertexID(v)) {
			if a == victim {
				dels = append(dels, Mutation{Op: OpDelAttr, U: graph.VertexID(v), Value: islands.Vocab().Name(a)})
			}
		}
	}
	deleted := Rebuild(islands, append(dels, Mutation{Op: OpAddVertex}))
	if id, ok := deleted.Vocab().Lookup(islands.Vocab().Name(victim)); !ok || id != victim {
		t.Fatal("the deleted value lost its vocabulary id")
	}
	for v := 0; v < deleted.NumVertices(); v++ {
		for _, a := range deleted.Attrs(graph.VertexID(v)) {
			if a == victim {
				t.Fatal("the deleted value is still carried")
			}
		}
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"islands", islands}, {"deleted-values", deleted}} {
		t.Run(tc.name, func(t *testing.T) {
			gb, err := graphBytes(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			order := tc.g.Vocab().Names()
			parsed, err := graph.Load(bytes.NewReader(gb))
			if err != nil {
				t.Fatal(err)
			}
			want := reintern(parsed, order)
			got, err := graph.LoadWithVocab(bytes.NewReader(gb), order)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Vocab().Names(), want.Vocab().Names()) ||
				!reflect.DeepEqual(got.Vocab().Names(), order) {
				t.Fatal("vocabulary order differs")
			}
			if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
				t.Fatalf("|V|,|E| = %d,%d, oracle %d,%d", got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
			}
			for v := 0; v < got.NumVertices(); v++ {
				id := graph.VertexID(v)
				if !reflect.DeepEqual(got.Attrs(id), want.Attrs(id)) || !reflect.DeepEqual(got.Neighbors(id), want.Neighbors(id)) {
					t.Fatalf("vertex %d differs", v)
				}
			}
			if graph.GlobalFingerprint(got) != graph.GlobalFingerprint(want) || graph.GlobalFingerprint(got) != graph.GlobalFingerprint(tc.g) {
				t.Fatal("global fingerprint differs")
			}
			gf := graph.AttrClosedComponents(got).Fingerprints(got)
			wf := graph.AttrClosedComponents(want).Fingerprints(want)
			if !reflect.DeepEqual(gf, wf) {
				t.Fatal("component fingerprints differ")
			}
		})
	}
}
