package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

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

// TestGetAllocsCeiling bounds the heap allocations of one /nexthop and
// one /paths request against a resident fabric, handler and telemetry
// included. The queries are parsed off the raw query string into a fixed
// array and the answers appended without reflection; what is left is the
// status wrapper, the Content-Type value, the fabric key, the candidate
// slice and the response buffer (on /paths: the layer list, each layer's
// route and the diversity count's two scratch slices in place of the
// candidates, each sized once). Before that parser and encoder the counts
// were 18 and 26; /paths took 14 while routes and scratch grew by append.
// Not parallel, so no other test's allocations land in the count.
func TestGetAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := testServer(t, Config{MaxFabrics: 1})
	for _, c := range []struct {
		target  string
		ceiling float64
	}{
		{"/nexthop?" + testFabricQ + "&layer=1&src=3&dst=17", 5},
		{"/paths?" + testFabricQ + "&src=3&dst=17", 10},
	} {
		r := httptest.NewRequest(http.MethodGet, c.target, nil)
		w := &discardWriter{hdr: http.Header{}}
		h := s.Handler()
		h.ServeHTTP(w, r) // admits the fabric
		got := testing.AllocsPerRun(200, func() {
			clear(w.hdr)
			w.code, w.n = 0, 0
			h.ServeHTTP(w, r)
		})
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
