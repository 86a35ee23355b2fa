package completion

import (
	"math"
	"sync"

	"cspm/internal/cspm"
	"cspm/internal/graph"
	"cspm/internal/tensor"
)

// Scorer ranks candidate attribute values for attribute-missing vertices
// using a mined a-star model (paper Algorithm 5): a core value whose a-star
// leafset resembles the vertex's neighbour attributes — and whose code is
// short — is a likely missing value.
//
// NewScorer indexes the model once so that ScoreNode visits only the a-stars
// whose leafsets share a value with v's neighbours. An a-star no neighbour
// value touches has similarity 0 and scores −2·CodeLen on each of its cores;
// the per-core maximum of those terms is precomputed as the floor. Since
// w ≤ 2, that term never exceeds the a-star's score when CodeLen ≥ 0, so
// every score is max(floor, touched a-stars' scores), which equals the full
// scan of Algorithm 5 bit for bit because max does not depend on order. The
// rare a-star with a negative CodeLen (never produced by mining) stays out of
// the floor and is scored on every call.
//
// A Scorer is safe for concurrent use: ScoreNode keeps its per-call state in
// pooled scratch buffers.
type Scorer struct {
	model *cspm.Model
	g     *graph.Graph
	// postings[postPtr[a]:postPtr[a+1]] lists the a-stars (indexes into
	// model.Patterns) whose leafset contains value a, once per occurrence.
	postPtr  []int32
	postings []int32
	// floor[c] is max over the a-stars with core c and CodeLen ≥ 0 of
	// −2·CodeLen, or −Inf; negative lists the a-stars with CodeLen < 0.
	floor    []float64
	negative []int32
}

// scratchPool holds ScoreNode working state. It is shared by all scorers, not
// kept per Scorer, so that a pooled buffer never keeps a retired snapshot's
// index reachable; a buffer grows to the largest model it has scored.
var scratchPool = sync.Pool{New: func() any { return new(scoreScratch) }}

// scoreScratch is one ScoreNode call's working state. seen and visited are
// all zero between calls: each call clears exactly the entries it set.
type scoreScratch struct {
	seen    []bool // attribute values already collected around v
	vals    []graph.AttrID
	visited []uint64 // a-stars already queued, one bit each
	touched []int32
}

// NewScorer builds a scorer from a model mined on (a training view of) g.
// Graphs are immutable, so the index built here stays valid for the
// scorer's lifetime.
func NewScorer(model *cspm.Model, g *graph.Graph) *Scorer {
	nA := g.NumAttrValues()
	s := &Scorer{model: model, g: g, postPtr: make([]int32, nA+1), floor: make([]float64, nA)}
	for i := range s.floor {
		s.floor[i] = math.Inf(-1)
	}
	for i, p := range model.Patterns {
		for _, a := range p.LeafValues {
			if inVocab(a, nA) {
				s.postPtr[a+1]++
			}
		}
		if p.CodeLen < 0 {
			s.negative = append(s.negative, int32(i))
			continue
		}
		cl := -2 * p.CodeLen // the zero-hit score: similarity 0, so w = 2
		for _, cv := range p.CoreValues {
			if inVocab(cv, nA) && cl > s.floor[cv] {
				s.floor[cv] = cl
			}
		}
	}
	for a := 0; a < nA; a++ {
		s.postPtr[a+1] += s.postPtr[a]
	}
	s.postings = make([]int32, s.postPtr[nA])
	fill := append([]int32(nil), s.postPtr[:nA]...)
	for i, p := range model.Patterns {
		for _, a := range p.LeafValues {
			if inVocab(a, nA) {
				s.postings[fill[a]] = int32(i)
				fill[a]++
			}
		}
	}
	return s
}

// inVocab reports whether a is a value id of a graph with nA values. Model
// values outside the vocabulary never match a neighbour value, and a core
// outside it has no score to update.
func inVocab(a graph.AttrID, nA int) bool { return a >= 0 && int(a) < nA }

// similarityOf is Algorithm 5's match between an a-star's leafset and the
// neighbours' values: the overlap |SL ∩ N| / |SL| (0 for an empty leafset),
// inverted by the caller into a weight where a worse match means a larger w
// and hence a smaller (more negative) score.
func similarityOf(hit, leafLen int) float64 {
	if leafLen == 0 {
		return 0
	}
	return float64(hit) / float64(leafLen)
}

// ScoreNode returns a score per attribute value for vertex v: higher is more
// likely. Values never seen as a core keep −Inf (Algorithm 5 line 1).
func (s *Scorer) ScoreNode(v graph.VertexID) []float64 {
	scores := make([]float64, len(s.floor))
	copy(scores, s.floor)
	sc := scratchPool.Get().(*scoreScratch)
	if len(sc.seen) < len(s.floor) {
		sc.seen = make([]bool, len(s.floor))
	}
	if n := (len(s.model.Patterns) + 63) / 64; len(sc.visited) < n {
		sc.visited = make([]uint64, n)
	}

	sc.vals = sc.vals[:0]
	for _, u := range s.g.Neighbors(v) {
		for _, a := range s.g.Attrs(u) {
			if !sc.seen[a] {
				sc.seen[a] = true
				sc.vals = append(sc.vals, a)
			}
		}
	}
	sc.touched = sc.touched[:0]
	for _, a := range sc.vals {
		for _, p := range s.postings[s.postPtr[a]:s.postPtr[a+1]] {
			sc.visit(p)
		}
	}
	for _, p := range s.negative {
		sc.visit(p)
	}
	nA := len(s.floor)
	for _, i := range sc.touched {
		p := &s.model.Patterns[i]
		hit := 0
		for _, a := range p.LeafValues {
			if inVocab(a, nA) && sc.seen[a] {
				hit++
			}
		}
		// Algorithm 5 line 5–6: w grows as similarity falls; cl = −w·L(S).
		w := 2 - similarityOf(hit, len(p.LeafValues))
		cl := -w * p.CodeLen
		for _, cv := range p.CoreValues {
			if inVocab(cv, nA) && cl > scores[cv] {
				scores[cv] = cl
			}
		}
		sc.visited[i>>6] &^= 1 << (i & 63)
	}
	for _, a := range sc.vals {
		sc.seen[a] = false
	}
	scratchPool.Put(sc)
	return scores
}

// ScoreMatrix scores every test node of the task, returning an n×|A| matrix
// with zero rows for non-test vertices.
func (s *Scorer) ScoreMatrix(task *Task) *tensor.Matrix {
	out := tensor.NewMatrix(task.G.NumVertices(), task.NumAttr)
	for _, v := range task.TestNodes {
		row := out.Row(int(v))
		copy(row, s.ScoreNode(v))
	}
	return out
}

// Fuse combines model probabilities with CSPM scores as in Fig. 7: both
// score vectors are min-max normalised per row and multiplied. Rows where
// CSPM is silent (all −Inf) fall back to the model alone.
func Fuse(modelScores, cspmScores *tensor.Matrix, testNodes []graph.VertexID) *tensor.Matrix {
	out := modelScores.Clone()
	for _, v := range testNodes {
		mrow := out.Row(int(v))
		if fused := FuseRows(mrow, cspmScores.Row(int(v))); fused != nil {
			copy(mrow, fused)
		}
	}
	return out
}

// FuseRows fuses one vertex's model and CSPM score rows with Fuse's exact
// per-row rule, without requiring whole-graph matrices — the row-granular
// entry point the serving layer scores requests through. It returns nil
// when the model row carries no finite signal (nothing to fuse onto).
func FuseRows(modelRow, cspmRow []float64) []float64 {
	mn := normalizeRow(modelRow)
	if mn == nil {
		return nil
	}
	cn := normalizeRow(cspmRow)
	if cn == nil {
		return mn
	}
	for j := range mn {
		mn[j] *= cn[j]
	}
	return mn
}

// normalizeRow min-max normalises a copy of row into [ε, 1]; returns nil if
// the row carries no finite signal. The ε floor keeps the multiplication
// from zeroing a value that one source is merely lukewarm about.
func normalizeRow(row []float64) []float64 {
	const eps = 1e-3
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range row {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if math.IsInf(lo, 1) {
		return nil // nothing finite
	}
	out := make([]float64, len(row))
	span := hi - lo
	for j, v := range row {
		switch {
		case math.IsInf(v, -1) || math.IsNaN(v):
			out[j] = eps / 2 // silent values rank below every scored value
		case span == 0:
			out[j] = 1
		default:
			out[j] = eps + (1-eps)*(v-lo)/span
		}
	}
	return out
}

// visit queues a-star p unless this call already has.
func (sc *scoreScratch) visit(p int32) {
	w, m := p>>6, uint64(1)<<(p&63)
	if sc.visited[w]&m == 0 {
		sc.visited[w] |= m
		sc.touched = append(sc.touched, p)
	}
}
