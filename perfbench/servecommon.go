package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cspm/internal/serveclient"
)

// httpHost serves a handler on a loopback listener.
type httpHost struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func startHTTP(h http.Handler) (*httpHost, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hh := &httpHost{url: "http://" + l.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(hh.done)
		_ = hh.srv.Serve(l) // ErrServerClosed once closed
	}()
	return hh, nil
}

// close stops the server and waits for its accept loop to exit.
func (hh *httpHost) close() {
	hh.srv.Close()
	<-hh.done
}

// newHTTPClient returns a client that opens at most conns connections per
// host, matching the sender count.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: spanTransport{&http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
	}
}

func closeClient(hc *http.Client) { hc.CloseIdleConnections() }

// spanHeader carries "trace:parent" from a traced client call to the
// server-side wrapper, which parents its handler span under the client span.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

type spanRef struct{ trace, parent uint64 }

func withSpan(ctx context.Context, trace, parent uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{trace, parent})
}

// spanTransport stamps the span reference of a traced call into a header;
// untraced calls pass through untouched.
type spanTransport struct{ base *http.Transport }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := req.Context().Value(spanKey{}).(spanRef); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, fmt.Sprintf("%d:%d", ref.trace, ref.parent))
	}
	return t.base.RoundTrip(req)
}

func (t spanTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

// traceHandler wraps a host so that requests carrying a span reference get a
// "serve.handler" span around the host's own ServeHTTP.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref := r.Header.Get(spanHeader)
		if ref == "" {
			h.ServeHTTP(w, r)
			return
		}
		t := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		a, b, _ := strings.Cut(ref, ":")
		trace, _ := strconv.ParseUint(a, 10, 64)
		parent, _ := strconv.ParseUint(b, 10, 64)
		tr.add(trace, parent, "serve.handler", t, end)
	})
}

// classify sorts a failed call: refused (the server shed the request: 429,
// 503) or failed (anything else).
func classify(r *report, op string, err error) {
	var apiErr *serveclient.APIError
	if errors.As(err, &apiErr) && (apiErr.StatusCode == http.StatusTooManyRequests || apiErr.StatusCode == http.StatusServiceUnavailable) {
		r.refuse(op)
		return
	}
	r.fail(op, "%v", err)
}

// scrape times one GET of the host-level Prometheus exposition.
func scrape(hc *http.Client, url string) (time.Duration, error) {
	t := time.Now()
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return time.Since(t), nil
}
