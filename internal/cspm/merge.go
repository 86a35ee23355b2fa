package cspm

import (
	"slices"

	"cspm/internal/graph"
	"cspm/internal/invdb"
	"cspm/internal/mdl"
	"cspm/internal/shardcache"
)

// newEntry packages one group's mined lines as a shard-result entry. The
// lines are stored in canonical order, so the merge can index an entry's
// own slices instead of keeping a sorted copy (see groupSummary).
func newEntry(init, final []invdb.LineStat, stats *runStats) *shardcache.Entry {
	return &shardcache.Entry{
		Init: invdb.NormalizeLineStats(init), Final: invdb.NormalizeLineStats(final),
		Iterations: stats.iterations, GainEvals: stats.gainEvals,
	}
}

// mergeEntryStats folds one entry per component group into m: canonical
// baseline/final DLs, conditional entropy and the ranked pattern list, all
// pure functions of the per-group line multisets. This is the exact-merge
// tail shared by the cached and distributed miners — it cannot tell (and
// need not know) whether an entry came from a fresh local run, a cache
// replay, or a remote worker's blob.
//
// It is a k-way merge over per-entry summaries (groupSummary), so a re-mine
// pays a sort only for the entries it has not merged before. The result is
// bit-identical to mergeEntryStatsFull, which it falls back to when the
// entries break the attribute-closed precondition.
func mergeEntryStats(m *Model, st *mdl.StandardTable, entries []*shardcache.Entry) {
	if !mergeSummaries(m, st, entries) {
		mergeEntryStatsFull(m, st, entries)
	}
}

// mergeEntryStatsFull is the merge by concatenation: it normalizes and sorts
// every group's lines together. It is the fallback of mergeEntryStats and
// the oracle its tests compare against.
func mergeEntryStatsFull(m *Model, st *mdl.StandardTable, entries []*shardcache.Entry) {
	var init, final []invdb.LineStat
	for _, e := range entries {
		init = append(init, e.Init...)
		final = append(final, e.Final...)
	}
	coreCode := func(c invdb.CoresetID) float64 { return st.Len(graph.AttrID(c)) }
	bd, bm := invdb.CanonicalDL(st, coreCode, init)
	m.BaselineDL = bd + bm
	fd, fm, cond := invdb.CanonicalSummary(st, coreCode, final)
	m.FinalDL = fd + fm
	m.CondEntropy = cond
	m.Patterns = patternsFromStats(st, final)
	sortPatterns(m.Patterns)
}

// groupSummary is what the merge needs from one entry beyond its lines,
// derived once per entry (shardcache.Entry.Memo): about 8 bytes per final
// line. Entries this package writes are canonical already; for entries an
// older binary wrote, init/final hold private canonical copies.
type groupSummary struct {
	init, final []invdb.LineStat // canonical copies; nil = the entry's own slices
	initLeaves  []int32          // distinct init leafsets, ascending content
	finalLeaves []int32          // distinct final leafsets, ascending content
	// ranked orders the final lines as sortPatterns orders their patterns,
	// under the standard table the summary was derived with. The merge
	// re-checks the order under its own table.
	ranked []int32
}

func summaryOf(e *shardcache.Entry, st *mdl.StandardTable) *groupSummary {
	return e.Memo(func(e *shardcache.Entry) any { return deriveSummary(e, st) }).(*groupSummary)
}

func deriveSummary(e *shardcache.Entry, st *mdl.StandardTable) *groupSummary {
	s := &groupSummary{init: canonicalCopy(e.Init), final: canonicalCopy(e.Final)}
	init, final := s.lines(e)
	s.initLeaves = invdb.SortedLeaves(init.Lines)
	s.finalLeaves = invdb.SortedLeaves(final.Lines)
	key := patternKeys(st, []invdb.CanonicalPart{final})
	codeLen := make([]float64, len(final.Lines))
	s.ranked = make([]int32, len(final.Lines))
	for i := range s.ranked {
		codeLen[i] = key.codeLen(&final.Lines[i])
		s.ranked[i] = int32(i)
	}
	slices.SortFunc(s.ranked, func(a, b int32) int {
		return compareRanked(codeLen[a], &final.Lines[a], codeLen[b], &final.Lines[b])
	})
	return s
}

// canonicalCopy returns nil when stats is canonical, else a normalized deep
// copy (a memo must not alias its entry).
func canonicalCopy(stats []invdb.LineStat) []invdb.LineStat {
	if invdb.IsCanonical(stats) {
		return nil
	}
	norm := invdb.NormalizeLineStats(stats)
	for i := range norm {
		norm[i].Leaf = slices.Clone(norm[i].Leaf)
	}
	return norm
}

// lines returns e's canonical init and final parts.
func (s *groupSummary) lines(e *shardcache.Entry) (init, final invdb.CanonicalPart) {
	init = invdb.CanonicalPart{Lines: s.init, Leaves: s.initLeaves}
	if init.Lines == nil {
		init.Lines = e.Init
	}
	final = invdb.CanonicalPart{Lines: s.final, Leaves: s.finalLeaves}
	if final.Lines == nil {
		final.Lines = e.Final
	}
	return init, final
}

// mergeSummaries is mergeEntryStats' fast path. It reports false, leaving m
// untouched, when the entries share a core or a leafset first value, or when
// a memoized ranking does not hold under st.
func mergeSummaries(m *Model, st *mdl.StandardTable, entries []*shardcache.Entry) bool {
	inits := make([]invdb.CanonicalPart, len(entries))
	finals := make([]invdb.CanonicalPart, len(entries))
	ranked := make([][]int32, len(entries))
	for i, e := range entries {
		s := summaryOf(e, st)
		inits[i], finals[i] = s.lines(e)
		ranked[i] = s.ranked
	}
	coreCode := func(c invdb.CoresetID) float64 { return st.Len(graph.AttrID(c)) }
	bd, bm, ok := invdb.MergedCanonicalDL(st, coreCode, inits)
	if !ok {
		return false
	}
	fd, fm, cond, ok := invdb.MergedCanonicalSummary(st, coreCode, finals)
	if !ok {
		return false
	}
	patterns, ok := mergeRanked(st, finals, ranked)
	if !ok {
		return false
	}
	m.BaselineDL = bd + bm
	m.FinalDL = fd + fm
	m.CondEntropy = cond
	m.Patterns = patterns
	return true
}

// patternKey prices the a-star of a final line: the core's frequency fc
// and standard-table code length, indexed by core id.
type patternKey struct {
	fc      []int
	coreLen []float64
}

// patternKeys indexes the cores of parts whose cores are pairwise disjoint.
func patternKeys(st *mdl.StandardTable, parts []invdb.CanonicalPart) patternKey {
	maxCore := -1
	for _, p := range parts {
		if n := len(p.Lines); n > 0 {
			maxCore = max(maxCore, int(p.Lines[n-1].Core))
		}
	}
	k := patternKey{fc: make([]int, maxCore+1), coreLen: make([]float64, maxCore+1)}
	for _, p := range parts {
		lines := p.Lines
		for i, ln := range lines {
			if i == 0 || lines[i-1].Core != ln.Core {
				k.coreLen[ln.Core] = st.SetLen([]graph.AttrID{graph.AttrID(ln.Core)})
			}
			k.fc[ln.Core] += ln.FL
		}
	}
	return k
}

// codeLen is the CodeLen patternsFromStats gives the line's a-star.
func (k patternKey) codeLen(ln *invdb.LineStat) float64 {
	return k.coreLen[ln.Core] + mdl.CondCodeLen(ln.FL, k.fc[ln.Core])
}

// compareRanked orders two final lines, given their a-stars' code lengths,
// as sortPatterns orders the a-stars.
func compareRanked(ca float64, a *invdb.LineStat, cb float64, b *invdb.LineStat) int {
	switch {
	case ca < cb:
		return -1
	case ca > cb:
		return 1
	case a.Core != b.Core:
		if a.Core < b.Core {
			return -1
		}
		return 1
	}
	return graph.CompareAttrs(a.Leaf, b.Leaf)
}

// rankedHead is one part's next line in pattern order.
type rankedHead struct {
	codeLen float64
	ln      *invdb.LineStat
	part    int
	pos     int
}

func headLess(a, b *rankedHead) bool { return compareRanked(a.codeLen, a.ln, b.codeLen, b.ln) < 0 }

// mergeRanked heap-merges the parts' ranked lines into the sorted pattern
// list. Cores are disjoint across parts, so sortPatterns' order is total and
// the merge of sorted runs reproduces it exactly. It reports false when a
// part's ranking is not strictly ascending under st.
func mergeRanked(st *mdl.StandardTable, parts []invdb.CanonicalPart, ranked [][]int32) ([]AStar, bool) {
	n, leafTotal := 0, 0
	for _, p := range parts {
		n += len(p.Lines)
		for _, ln := range p.Lines {
			leafTotal += len(ln.Leaf)
		}
	}
	key := patternKeys(st, parts)
	head := func(part, pos int) rankedHead {
		ln := &parts[part].Lines[ranked[part][pos]]
		return rankedHead{codeLen: key.codeLen(ln), ln: ln, part: part, pos: pos}
	}
	h := make([]rankedHead, 0, len(parts))
	for i := range parts {
		if len(ranked[i]) > 0 {
			h = append(h, head(i, 0))
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	// Patterns share two backing arrays instead of two allocations each;
	// every slice is capped at its own length, so appending to one copies.
	out := make([]AStar, 0, n)
	cores := make([]graph.AttrID, n)
	leaves := make([]graph.AttrID, 0, leafTotal)
	for len(h) > 0 {
		top := h[0]
		ln, i := top.ln, len(out)
		cores[i] = graph.AttrID(ln.Core)
		var leaf []graph.AttrID
		if len(ln.Leaf) > 0 {
			start := len(leaves)
			leaves = append(leaves, ln.Leaf...)
			leaf = leaves[start:len(leaves):len(leaves)]
		}
		out = append(out, AStar{
			CoreValues: cores[i : i+1 : i+1],
			LeafValues: leaf,
			FL:         ln.FL,
			FC:         key.fc[ln.Core],
			CodeLen:    top.codeLen,
		})
		if next := top.pos + 1; next < len(ranked[top.part]) {
			h[0] = head(top.part, next)
			if !headLess(&top, &h[0]) {
				return nil, false
			}
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	return out, true
}

func siftDown(h []rankedHead, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && headLess(&h[r], &h[l]) {
			l = r
		}
		if !headLess(&h[l], &h[i]) {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// patternsFromStats derives the a-star pattern list from a final line
// multiset — the cache-replay twin of extractPatterns. Under single-value
// coresets every AStar field is a pure function of the stats: FC is the sum
// of the core's line frequencies, the core code length is the standard-table
// length of its one value, and the conditional code length follows from
// (fL, fc) — so replayed and freshly mined groups produce identical
// patterns, bit for bit.
func patternsFromStats(st *mdl.StandardTable, stats []invdb.LineStat) []AStar {
	norm := invdb.NormalizeLineStats(stats)
	out := make([]AStar, 0, len(norm))
	for i := 0; i < len(norm); {
		c := norm[i].Core
		j, fc := i, 0
		for ; j < len(norm) && norm[j].Core == c; j++ {
			fc += norm[j].FL
		}
		coreLen := st.SetLen([]graph.AttrID{graph.AttrID(c)})
		for k := i; k < j; k++ {
			out = append(out, AStar{
				CoreValues: []graph.AttrID{graph.AttrID(c)},
				// Copied, not aliased: on a cache hit norm[k].Leaf points into
				// the long-lived cached entry, and patterns carry no read-only
				// contract — an aliasing caller would corrupt the cache.
				LeafValues: append([]graph.AttrID(nil), norm[k].Leaf...),
				FL:         norm[k].FL,
				FC:         fc,
				CodeLen:    coreLen + mdl.CondCodeLen(norm[k].FL, fc),
			})
		}
		i = j
	}
	return out
}
