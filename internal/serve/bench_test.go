package serve

// The daemon load harness: a concurrent query storm driven straight into
// the handler (no sockets, so the numbers measure the serving path, not
// the kernel), with per-request latencies digested into percentiles that
// `go test -bench` prints. CI's benchmark smoke runs it once to prove it
// builds and runs, and keeps no numbers. The companion race test runs the
// same mixed workload under -race with answer checking.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// mixedQuery is request n of the load mix: mostly lock-free /nexthop
// reads over varying triples, some /paths walks, an occasional
// copy-on-write /whatif derivation, and a /healthz probe.
func mixedQuery(n int) (method, target, body string) {
	nr := 50 // SF q=5
	src, dst := n%nr, (n*7+13)%nr
	if src == dst {
		dst = (dst + 1) % nr
	}
	switch {
	case n%16 == 15:
		return http.MethodPost, "/whatif", fmt.Sprintf(
			`{"fabric":{"topology":{"kind":"SF","param":5},"layers":2,"rho":0.7},"failedEdges":[%d],"queries":[{"layer":%d,"src":%d,"dst":%d}]}`,
			n%100, n%2, src, dst)
	case n%16 == 7:
		return http.MethodGet, fmt.Sprintf("/paths?%s&src=%d&dst=%d", testFabricQ, src, dst), ""
	case n%64 == 0:
		return http.MethodGet, "/healthz", ""
	default:
		return http.MethodGet, fmt.Sprintf("/nexthop?%s&layer=%d&src=%d&dst=%d", testFabricQ, n%2, src, dst), ""
	}
}

// mixedRequest issues request n of the load mix.
func mixedRequest(t testing.TB, s *Server, n int) (int, []byte) {
	method, target, body := mixedQuery(n)
	return do(t, s, method, target, body)
}

// TestDaemonConcurrentQueries hammers one resident fabric from many
// goroutines with the mixed workload — the suite's -race harness for the
// serving path — and checks answers stay deterministic under fire by
// comparing a pinned query before and during the storm.
func TestDaemonConcurrentQueries(t *testing.T) {
	s := testServer(t, Config{MaxFabrics: 2})
	pinned := "/nexthop?" + testFabricQ + "&layer=1&src=3&dst=17"
	_, want := get(t, s, pinned)

	workers := 16
	perWorker := 128
	if testing.Short() {
		workers, perWorker = 4, 32
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := w*perWorker + i
				if code, body := mixedRequest(t, s, n); code != http.StatusOK {
					t.Errorf("request %d: status %d: %s", n, code, body)
					return
				}
				if n%100 == 17 {
					if _, got := get(t, s, pinned); !bytes.Equal(got, want) {
						t.Errorf("pinned answer drifted under load: %s vs %s", got, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	snap := s.reg.Snapshot()
	if snap[obs.MetricServeErrors] != 0 {
		t.Fatalf("%d request errors under load", snap[obs.MetricServeErrors])
	}
	wantReqs := int64(workers*perWorker) + 1 + int64(workers*perWorker/100)
	if snap[obs.MetricServeRequests] < wantReqs {
		t.Fatalf("requests %d, want >= %d", snap[obs.MetricServeRequests], wantReqs)
	}
}

// BenchmarkDaemonQueries: 10,000 concurrent mixed queries per iteration
// against a warm daemon, reporting throughput, client-observed latency
// percentiles and allocations. The requests are built before the timer
// starts, as bench/e2e.go builds its pools, so the loop times the handler
// and not the request construction.
func BenchmarkDaemonQueries(b *testing.B) {
	s := testServer(b, Config{MaxFabrics: 2})
	if code, body := get(b, s, "/nexthop?"+testFabricQ+"&src=0&dst=1"); code != http.StatusOK {
		b.Fatalf("warmup: status %d: %s", code, body)
	}

	const total = 10_000
	const workers = 64
	type prebuilt struct {
		req  *http.Request
		body string
		rd   *strings.Reader // re-armed with body before each use; nil on a GET
	}
	reqs := make([]prebuilt, total)
	for n := range reqs {
		method, target, body := mixedQuery(n)
		if body == "" {
			reqs[n] = prebuilt{req: httptest.NewRequest(method, target, nil)}
			continue
		}
		rd := strings.NewReader(body)
		reqs[n] = prebuilt{req: httptest.NewRequest(method, target, rd), body: body, rd: rd}
	}
	handler := s.Handler()
	lat := make([]time.Duration, total)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rw := &discardWriter{hdr: http.Header{}}
				for {
					n := int(next.Add(1)) - 1
					if n >= total {
						return
					}
					r := &reqs[n]
					if r.rd != nil {
						r.rd.Reset(r.body)
					}
					clear(rw.hdr)
					rw.code = http.StatusOK
					start := time.Now()
					handler.ServeHTTP(rw, r.req)
					lat[n] = time.Since(start)
					if rw.code != http.StatusOK {
						b.Errorf("request %d: status %d", n, rw.code)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	if b.Failed() {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	b.ReportMetric(float64(total), "queries/op")
	b.ReportMetric(us(lat[total/2]), "p50-µs")
	b.ReportMetric(us(lat[total*99/100]), "p99-µs")
	b.ReportMetric(us(lat[total-1]), "max-µs")
	if snap := s.reg.Snapshot(); snap[obs.MetricServeErrors] != 0 {
		b.Fatalf("%d request errors", snap[obs.MetricServeErrors])
	}
	// The daemon-side latency histogram saw every request; sanity-check the
	// observability path agrees with the client-side clock on volume.
	h := s.reg.Histogram(obs.MetricServeLatencyMs, obs.RequestLatencyBucketsMs)
	if h.Count() < int64(total*b.N) {
		b.Fatalf("latency histogram saw %d requests, want >= %d", h.Count(), total*b.N)
	}
}
