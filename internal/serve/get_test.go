package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// testWhatifBody is a /whatif body as json.Marshal writes one: two failed
// edges and four queries on the suite's fabric.
const testWhatifBody = `{"fabric":{"topology":{"kind":"SF","param":5},"layers":2,"rho":0.7},"failedEdges":[3,40],` +
	`"queries":[{"layer":0,"src":3,"dst":17},{"layer":1,"src":0,"dst":49},{"layer":1,"src":12,"dst":30},{"layer":0,"src":44,"dst":2}]}`

// discardWriter is the least http.ResponseWriter a handler can write
// into: its header map is reused and the body is only counted, so what an
// allocation count sees is the handler's own work.
type discardWriter struct {
	hdr  http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header { return w.hdr }
func (w *discardWriter) WriteHeader(c int)   { w.code = c }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestGetAllocsCeiling bounds the heap allocations of one /nexthop, one
// /paths and one /whatif request against a resident fabric, handler and
// telemetry included; each ceiling is the count measured. The queries are
// parsed off the raw query string into a fixed array and the answers
// appended without reflection; what is left of a GET is the status
// wrapper, the fabric key and the response buffer (on /paths: the layer
// list, each layer's route and the diversity count's two scratch slices,
// each sized once; /nexthop's candidates go into a stack array). Before
// that parser and encoder the counts were 18 and 26; /paths took 14 while
// routes and scratch grew by append, and 5 and 10 while the Content-Type
// value was a fresh slice and /paths grew its layer list by append;
// /nexthop took 4 while its candidate list grew by append. A /whatif body
// is read by hand (readWhatif) into the request's own strings and slices;
// the rest is the view, its repairs and the answer. Through
// scenario.DecodeStrict it took 54, and 32 while each repair grew its own
// working lists and each answer its own candidate list.
// Not parallel, so no other test's allocations land in the count.
func TestGetAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := testServer(t, Config{MaxFabrics: 1})
	for _, c := range []struct {
		method, target, body string
		ceiling              float64
	}{
		{"GET", "/nexthop?" + testFabricQ + "&layer=1&src=3&dst=17", "", 3},
		{"GET", "/paths?" + testFabricQ + "&src=3&dst=17", "", 8},
		{"POST", "/whatif", testWhatifBody, 19},
	} {
		body := strings.NewReader(c.body)
		r := httptest.NewRequest(c.method, c.target, io.NopCloser(body))
		w := &discardWriter{hdr: http.Header{}}
		h := s.Handler()
		serve := func() {
			body.Reset(c.body) // re-arms a POST body
			clear(w.hdr)
			w.code, w.n = 0, 0
			h.ServeHTTP(w, r)
		}
		serve() // admits the fabric
		got := testing.AllocsPerRun(200, serve)
		if w.code != http.StatusOK || w.n == 0 {
			t.Fatalf("%s: status %d, %d body bytes", c.target, w.code, w.n)
		}
		t.Logf("%s: %.0f allocs per request", c.target, got)
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs per request, ceiling %.0f", c.target, got, c.ceiling)
		}
	}
}

// TestUnknownParameterDeterministic: with several unknown keys the
// rejection names the first one in query order, every time — daemon
// answers, errors included, fall under the determinism contract.
func TestUnknownParameterDeterministic(t *testing.T) {
	s := testServer(t, Config{MaxFabrics: 1})
	const want = `{"error":"unknown query parameter \"foo\""}` + "\n"
	for _, target := range []string{"/nexthop?topo=SF&foo=1&bar=2", "/paths?foo=1&bar=2&topo=SF&baz=3"} {
		for i := 0; i < 20; i++ {
			if code, body := get(t, s, target); code != http.StatusBadRequest || string(body) != want {
				t.Fatalf("%s, try %d: status %d, body %s; want 400 and %s", target, i, code, body, want)
			}
		}
	}
}
