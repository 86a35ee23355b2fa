package invdb

import (
	"slices"

	"cspm/internal/graph"
	"cspm/internal/mdl"
)

// CanonicalPart is one group's slice of a line multiset, prepared so the
// canonical sums over several groups can be taken without re-sorting:
// Lines in canonical (coreset id, leafset content) order with no duplicate
// (core, leaf) pair, and Leaves, the indices into Lines of its distinct
// leafsets in ascending content order (SortedLeaves).
type CanonicalPart struct {
	Lines  []LineStat
	Leaves []int32
}

// IsCanonical reports whether stats is already in canonical order with no
// duplicate (core, leaf) pair — that is, whether NormalizeLineStats would
// return it unchanged.
func IsCanonical(stats []LineStat) bool {
	for i := 1; i < len(stats); i++ {
		a, b := stats[i-1], stats[i]
		if a.Core > b.Core || (a.Core == b.Core && graph.CompareAttrs(a.Leaf, b.Leaf) >= 0) {
			return false
		}
	}
	return true
}

// SortedLeaves returns the indices of the distinct leafsets of stats in
// ascending content order (the first index of each content).
func SortedLeaves(stats []LineStat) []int32 {
	idx := make([]int32, len(stats))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int { return graph.CompareAttrs(stats[a].Leaf, stats[b].Leaf) })
	return slices.CompactFunc(idx, func(a, b int32) bool { return graph.CompareAttrs(stats[a].Leaf, stats[b].Leaf) == 0 })
}

// MergedCanonicalDL returns CanonicalDL of the concatenation of parts' lines,
// bit for bit, in time linear in the lines and the id range instead of a
// sort. It relies on the groups being attribute-closed: when no coreset id
// and no leafset first value occurs in two parts, the canonical order of the
// union is each part's own order, interleaved by coreset id (core terms)
// and by first leaf value (spell-out terms), so every float is added in the
// same order as CanonicalDL adds it. ok is false when parts break that
// precondition; callers then price the concatenation with CanonicalDL.
func MergedCanonicalDL(st *mdl.StandardTable, coreCode func(CoresetID) float64, parts []CanonicalPart) (data, model float64, ok bool) {
	data, model, _, ok = mergedCanonical(st, coreCode, parts, false)
	return data, model, ok
}

// MergedCanonicalSummary is MergedCanonicalDL plus the conditional entropy
// (CanonicalSummary's bundle), under the same precondition.
func MergedCanonicalSummary(st *mdl.StandardTable, coreCode func(CoresetID) float64, parts []CanonicalPart) (data, model, condEntropy float64, ok bool) {
	return mergedCanonical(st, coreCode, parts, true)
}

func mergedCanonical(st *mdl.StandardTable, coreCode func(CoresetID) float64, parts []CanonicalPart, entropy bool) (data, model, cond float64, ok bool) {
	coreOwner, leafOwner, anyEmpty, total, ok := partOwners(parts)
	if !ok {
		return 0, 0, 0, false
	}
	entropy = entropy && total != 0 // CondEntropy of a frequency-less multiset is 0
	// Core terms: one block per coreset id, in id order; each block is one
	// part's run of lines, already in leaf-content order.
	cur := make([]int, len(parts))
	for c, pi := range coreOwner {
		if pi < 0 {
			continue
		}
		lines := parts[pi].Lines
		i, j, fc := cur[pi], cur[pi], 0
		for ; j < len(lines) && lines[j].Core == CoresetID(c); j++ {
			fc += lines[j].FL
		}
		data += mdl.XLogXInt(fc)
		code := coreCode(CoresetID(c))
		for k := i; k < j; k++ {
			data -= mdl.XLogXInt(lines[k].FL)
			model += code
			if entropy {
				cond -= mdl.CondEntropyTerm(lines[k].FL, fc, total)
			}
		}
		cur[pi] = j
	}
	// Spell-out: every distinct leafset once, in ascending content order. The
	// empty leafset sorts before all others and may occur in several parts.
	if anyEmpty {
		model += st.SetLen(nil)
	}
	for i := range cur {
		cur[i] = 0
	}
	for v, pi := range leafOwner {
		if pi < 0 {
			continue
		}
		p := parts[pi]
		for ; cur[pi] < len(p.Leaves); cur[pi]++ {
			lf := p.Lines[p.Leaves[cur[pi]]].Leaf
			if len(lf) == 0 {
				continue
			}
			if lf[0] != graph.AttrID(v) {
				break
			}
			model += st.SetLen(lf)
		}
	}
	return data, model, cond, true
}

// partOwners maps every coreset id and every leafset first value to the one
// part holding it (-1 = none), reporting ok=false when an id is held by two
// parts. It also reports whether any part has an empty leafset and the total
// line frequency.
func partOwners(parts []CanonicalPart) (coreOwner, leafOwner []int32, anyEmpty bool, total int, ok bool) {
	maxCore, maxLeaf := -1, -1
	for _, p := range parts {
		if n := len(p.Lines); n > 0 {
			maxCore = max(maxCore, int(p.Lines[n-1].Core))
		}
		if n := len(p.Leaves); n > 0 {
			if lf := p.Lines[p.Leaves[n-1]].Leaf; len(lf) > 0 {
				maxLeaf = max(maxLeaf, int(lf[0]))
			}
		}
	}
	coreOwner = filled(maxCore+1, -1)
	leafOwner = filled(maxLeaf+1, -1)
	for pi, p := range parts {
		for i, ln := range p.Lines {
			total += ln.FL
			if i > 0 && p.Lines[i-1].Core == ln.Core {
				continue
			}
			if ln.Core < 0 || coreOwner[ln.Core] >= 0 {
				return nil, nil, false, 0, false
			}
			coreOwner[ln.Core] = int32(pi)
		}
		for _, ix := range p.Leaves {
			lf := p.Lines[ix].Leaf
			if len(lf) == 0 {
				anyEmpty = true
				continue
			}
			if lf[0] < 0 {
				return nil, nil, false, 0, false
			}
			switch o := leafOwner[lf[0]]; {
			case o == int32(pi):
			case o >= 0:
				return nil, nil, false, 0, false
			default:
				leafOwner[lf[0]] = int32(pi)
			}
		}
	}
	return coreOwner, leafOwner, anyEmpty, total, true
}

func filled(n int, v int32) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = v
	}
	return s
}
