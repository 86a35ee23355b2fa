package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"cspm/internal/completion"
	"cspm/internal/serve"
	"cspm/internal/serveclient"
)

// probeReps is how many identical calls each serving-layer probe times.
const probeReps = 200

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timedCalls runs call n times and returns the median call time and the
// allocations per call. The host is idle while probes run, so the process's
// allocation count is the calls' own.
func timedCalls(n int, call func(i int)) (median time.Duration, allocs float64) {
	var s sample
	before := mallocs()
	for i := 0; i < n; i++ {
		t := time.Now()
		call(i)
		s.addDur(time.Since(t))
	}
	allocs = float64(mallocs()-before) / float64(n)
	return time.Duration(s.median() * float64(time.Millisecond)), allocs
}

// probeServing times the read path layer by layer on identical requests:
// completion scoring in process, the host's handler through an
// httptest.ResponseRecorder, and the typed client over loopback HTTP, whose
// cost beyond the handler is the transport's. reqs supplies the completion
// vertex sets of the requests the load generator sent.
func probeServing(r *report, host http.Handler, ns *serveclient.NamespaceClient, snap *serve.Snapshot, reqs []readReq) {
	var creqs []serve.CompleteRequest
	for _, q := range reqs {
		if q.complete {
			creqs = append(creqs, serve.CompleteRequest{Vertices: q.verts, TopK: topK})
		}
		if len(creqs) == probeReps {
			break
		}
	}
	if len(creqs) == 0 {
		r.fail("probe", "no completion requests to probe with")
		return
	}
	bodies := make([][]byte, len(creqs))
	for i, q := range creqs {
		bodies[i], _ = json.Marshal(q)
	}

	// Algorithm 5 in process, on the served snapshot, same vertices.
	sc := completion.NewScorer(snap.Model, snap.Graph)
	var score sample
	for _, q := range creqs {
		for _, v := range q.Vertices {
			t := time.Now()
			sc.ScoreNode(v)
			score.add(float64(time.Since(t).Nanoseconds()) / 1e3)
		}
	}
	r.set("completion.score_us_per_vertex", score.median(), "us")
	r.set("completion.patterns_scanned", float64(len(snap.Model.Patterns)), "count")

	// The handler, in process. Requests and recorders are built before the
	// timed loop so their allocations stay out of the count.
	path := "/v2/graphs/" + benchNS
	hreqs := make([]*http.Request, len(creqs))
	recs := make([]*httptest.ResponseRecorder, len(creqs))
	for i := range creqs {
		hreqs[i] = httptest.NewRequest(http.MethodPost, path+"/complete", bytes.NewReader(bodies[i]))
		recs[i] = httptest.NewRecorder()
	}
	hComplete, aComplete := timedCalls(len(creqs), func(i int) { host.ServeHTTP(recs[i], hreqs[i]) })
	for _, rec := range recs {
		r.attempt("probe", 1)
		if rec.Code != http.StatusOK {
			r.fail("probe", "handler complete: HTTP %d", rec.Code)
		}
	}
	total := len(snap.Model.Patterns)
	for i := range hreqs {
		off := (i * pageSize * 7) % max(total-pageSize, 1)
		hreqs[i] = httptest.NewRequest(http.MethodGet, path+"/patterns?offset="+strconv.Itoa(off)+"&limit="+strconv.Itoa(pageSize), nil)
		recs[i] = httptest.NewRecorder()
	}
	hPatterns, aPatterns := timedCalls(len(hreqs), func(i int) { host.ServeHTTP(recs[i], hreqs[i]) })
	r.set("serve.handler_us.complete", float64(hComplete.Nanoseconds())/1e3, "us")
	r.set("serve.handler_us.patterns", float64(hPatterns.Nanoseconds())/1e3, "us")
	r.set("serve.handler_allocs.complete", aComplete, "count")
	r.set("serve.handler_allocs.patterns", aPatterns, "count")

	// The same completions through the typed client over loopback HTTP.
	ctx := context.Background()
	cComplete, aClient := timedCalls(len(creqs), func(i int) {
		r.attempt("probe", 1)
		if _, err := ns.Complete(ctx, creqs[i]); err != nil {
			r.fail("probe", "client complete: %v", err)
		}
	})
	r.set("serveclient.transport_us.complete", float64((cComplete-hComplete).Nanoseconds())/1e3, "us")
	r.set("serveclient.allocs.complete", aClient-aComplete, "count")
}

// probeScrape times twenty GET /metrics scrapes of an idle host.
func probeScrape(r *report, hc *http.Client, url string) {
	var sc sample
	for i := 0; i < 20; i++ {
		r.attempt("probe", 1)
		d, err := scrape(hc, url)
		if err != nil {
			r.fail("probe", "scrape: %v", err)
			continue
		}
		sc.addDur(d)
	}
	r.set("obs.scrape_ms", sc.median(), "ms")
}
