package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented). Spans of one operation
// share Trace; Parent is the ID of the span that caused this one (0 = root).
type span struct {
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent"`
	Trace  uint64    `json:"trace"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// add records a finished span and returns its ID.
func (t *tracer) add(trace, parent uint64, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	return t.next
}

// newID reserves a span ID for a span whose end is not known yet (a root
// whose children finish first); record it later with put.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) put(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// chain records a root span [start, ends[last]] named root and one child per
// segment, each starting where the previous one ended. Stamps taken on
// different clocks or out of order are clamped so the segments tile the root
// exactly: a segment whose stamp precedes its start has zero length.
func (t *tracer) chain(trace uint64, root string, start time.Time, names []string, ends []time.Time) {
	if t == nil || len(ends) == 0 {
		return
	}
	id := t.newID()
	cur := start
	for i, name := range names {
		end := ends[i]
		if end.Before(cur) {
			end = cur
		}
		t.add(trace, id, name, cur, end)
		cur = end
	}
	t.put(span{ID: id, Trace: trace, Name: root, Start: start, End: cur})
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start.Before(cs[j].Start) })
		var covered time.Duration
		var curS, curE time.Time
		open := false
		for _, c := range cs {
			cS, cE := c.Start, c.End
			if cS.Before(s.Start) {
				cS = s.Start
			}
			if cE.After(s.End) {
				cE = s.End
			}
			if !cE.After(cS) {
				continue
			}
			if open && !cS.After(curE) {
				if cE.After(curE) {
					curE = cE
				}
				continue
			}
			if open {
				covered += curE.Sub(curS)
			}
			curS, curE, open = cS, cE, true
		}
		if open {
			covered += curE.Sub(curS)
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// breakdown is one operation type's traced decomposition.
type breakdown struct {
	Op       string             `json:"op"`
	Count    int                `json:"count"`
	MedianMS float64            `json:"traced_median_ms"`
	SelfMS   map[string]float64 `json:"self_ms"` // layer → mean self time over the median band
	SumMS    float64            `json:"self_sum_ms"`
}

// decompose groups root spans named "op.<type>" by type and, for each type,
// averages every layer's self time over the operations in the middle fifth
// of the duration distribution (at least one), so the layers add up to the
// median operation rather than to a mean skewed by the tail. Each span's
// self time is attributed to its layer name; the root's own self time shows
// as the op name itself.
func decompose(spans []span) []breakdown {
	self := selfTimes(spans)
	roots := make(map[string][]span)
	for _, s := range spans {
		if s.Parent == 0 {
			if len(s.Name) > 3 && s.Name[:3] == "op." {
				roots[s.Name[3:]] = append(roots[s.Name[3:]], s)
			}
		}
	}
	// Children reachable from each root: spans share a trace with their root,
	// but several roots may share one trace (a batch is acked, then
	// visible, then replica-visible), so walk parent links.
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []breakdown
	ops := make([]string, 0, len(roots))
	for op := range roots {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		rs := roots[op]
		sort.Slice(rs, func(i, j int) bool { return rs[i].dur() < rs[j].dur() })
		lo, hi := len(rs)*2/5, len(rs)*3/5
		if hi <= lo {
			hi = lo + 1
		}
		band := rs[lo:hi]
		b := breakdown{Op: op, Count: len(rs), SelfMS: map[string]float64{}}
		var d sample
		for _, r := range rs {
			d.addDur(r.dur())
		}
		b.MedianMS = d.median()
		for _, r := range band {
			stack := []span{r}
			for len(stack) > 0 {
				s := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				b.SelfMS[s.Name] += ms(self[s.ID]) / float64(len(band))
				stack = append(stack, children[s.ID]...)
			}
		}
		for _, v := range b.SelfMS {
			b.SumMS += v
		}
		out = append(out, b)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeSpans writes every span as one JSON document under dir.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{spans}); err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, f.Close()
}
