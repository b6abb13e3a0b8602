package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the daemon smoke fixtures under testdata/")

// testFabricQ selects the suite's resident fabric: SlimFly q=5 (50
// routers), 2 layers, rho 0.7, default seed 42.
const testFabricQ = "topo=SF&param=5&layers=2&rho=0.7"

// testSpec is the offline twin of testFabricQ.
func testSpec() scenario.Spec {
	return scenario.Spec{
		Topology: scenario.Topology{Kind: "SF", Param: 5},
		Layers:   2,
		Rho:      0.7,
	}
}

func testServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	return New(cfg, obs.NewRegistry())
}

func do(t testing.TB, s *Server, method, target, body string) (int, []byte) {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}

func get(t testing.TB, s *Server, target string) (int, []byte) {
	return do(t, s, http.MethodGet, target, "")
}

func post(t testing.TB, s *Server, target, body string) (int, []byte) {
	return do(t, s, http.MethodPost, target, body)
}

// TestServedAnswersMatchOfflineEngine pins the daemon half of the
// determinism contract: /nexthop and /whatif answers are byte-identical
// to the offline engine at the same seed — residency changes where the
// fabric lives, never what it answers.
func TestServedAnswersMatchOfflineEngine(t *testing.T) {
	s := testServer(t, Config{MaxFabrics: 2})
	_, fab, err := scenario.BuildFabric(testSpec(), 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	fab.Fwd.BuildAll(0) // mirror the daemon's eager admission build
	nr := fab.Topo.Nr()

	for _, q := range []struct{ layer, src, dst int }{
		{0, 0, 1}, {1, 3, 17}, {0, 49, 0}, {1, 7, 7}, {0, 12, nr - 1},
	} {
		want, _ := answerHop(fab.Fwd, nil, q.layer, q.src, q.dst)
		wb, _ := json.Marshal(want)
		wb = append(wb, '\n')
		code, got := get(t, s, "/nexthop?"+testFabricQ+
			"&layer="+itoa(q.layer)+"&src="+itoa(q.src)+"&dst="+itoa(q.dst))
		if code != http.StatusOK {
			t.Fatalf("nexthop (%d,%d,%d): status %d: %s", q.layer, q.src, q.dst, code, got)
		}
		if !bytes.Equal(got, wb) {
			t.Fatalf("nexthop (%d,%d,%d) diverged from offline engine:\n  daemon  %s  offline %s",
				q.layer, q.src, q.dst, got, wb)
		}
	}

	// /whatif against an offline WithoutEdges view, including the
	// shared/invalidated census (deterministic because both sides built
	// eagerly).
	edges := []int{0, 7, 11}
	derived := fab.Fwd.WithoutEdges(edges)
	want := WhatifAnswer{
		FailedEdges:       edges,
		SharedTables:      derived.Stat().TablesBuilt,
		InvalidatedTables: fab.Fwd.Stat().TablesBuilt - derived.Stat().TablesBuilt,
	}
	queries := []QueryTriple{{Layer: 0, Src: 3, Dst: 17}, {Layer: 1, Src: 44, Dst: 2}}
	for _, q := range queries {
		a, _ := answerHop(derived, nil, q.Layer, q.Src, q.Dst)
		want.Answers = append(want.Answers, a)
	}
	wb, _ := json.Marshal(want)
	wb = append(wb, '\n')
	body, _ := json.Marshal(WhatifRequest{
		Fabric:      FabricSelector{Topology: scenario.Topology{Kind: "SF", Param: 5}, Layers: 2, Rho: 0.7},
		FailedEdges: edges, Queries: queries,
	})
	code, got := post(t, s, "/whatif", string(body))
	if code != http.StatusOK {
		t.Fatalf("whatif: status %d: %s", code, got)
	}
	if !bytes.Equal(got, wb) {
		t.Fatalf("whatif diverged from offline engine:\n  daemon  %s  offline %s", got, wb)
	}
	if want.SharedTables+want.InvalidatedTables != fab.Fwd.Stat().TablesBuilt {
		t.Fatalf("shared %d + invalidated %d != parent built %d",
			want.SharedTables, want.InvalidatedTables, fab.Fwd.Stat().TablesBuilt)
	}
}

// TestPathsEndpoint sanity-checks the diversity view: every layer answer
// walks src->dst, and distinct paths are at least the best layer's ECMP
// width.
func TestPathsEndpoint(t *testing.T) {
	s := testServer(t, Config{MaxFabrics: 1})
	code, body := get(t, s, "/paths?"+testFabricQ+"&src=3&dst=17")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var ans PathsAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		t.Fatal(err)
	}
	if len(ans.Layers) != 2 {
		t.Fatalf("got %d layers, want 2", len(ans.Layers))
	}
	maxWidth := 0
	for _, lp := range ans.Layers {
		if lp.Len < 0 {
			continue // sparse layer may legitimately not connect the pair
		}
		if lp.Candidates > maxWidth {
			maxWidth = lp.Candidates
		}
		if len(lp.Path) != lp.Len+1 {
			t.Fatalf("layer %d: path %v has %d hops, reported len %d", lp.Layer, lp.Path, len(lp.Path)-1, lp.Len)
		}
		if lp.Path[0] != 3 || lp.Path[len(lp.Path)-1] != 17 {
			t.Fatalf("layer %d path %v does not run 3->17", lp.Layer, lp.Path)
		}
	}
	if ans.Layers[0].Len < 0 {
		t.Fatal("layer 0 is the full topology; 3->17 must be reachable")
	}
	if ans.DistinctPaths < maxWidth {
		t.Fatalf("distinctPaths %d < best single-layer ECMP width %d", ans.DistinctPaths, maxWidth)
	}
	// The layer filter returns exactly one entry with identical content.
	code, body = get(t, s, "/paths?"+testFabricQ+"&src=3&dst=17&layer=1")
	if code != http.StatusOK {
		t.Fatalf("filtered: status %d: %s", code, body)
	}
	var one PathsAnswer
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	if len(one.Layers) != 1 || !reflect.DeepEqual(one.Layers[0], ans.Layers[1]) {
		t.Fatalf("layer filter answer %+v != unfiltered layer 1 %+v", one.Layers, ans.Layers[1])
	}
	if one.DistinctPaths != ans.DistinctPaths {
		t.Fatal("layer filter must not change the cross-layer diversity count")
	}
}

// TestRequestValidation walks the 400 surface: unknown/missing/bad
// parameters, out-of-range routers, layers, and edges, malformed and
// unknown-field bodies. Every rejection is {"error": ...}; where a case
// names a message, the query-parameter ones word for word.
func TestRequestValidation(t *testing.T) {
	s := testServer(t, Config{MaxFabrics: 1})
	// 257 loads x 256 failFracs: 256 cells over scenario.MaxCells, in 3 KB.
	var overCap scenario.Matrix
	overCap.Name = "over-cap"
	overCap.Base = scenario.Spec{Topology: scenario.Topology{Kind: "SF", Param: 5}, Pattern: scenario.Pattern{Kind: "uniform"}}
	for i := 0; i < 257; i++ {
		overCap.Axes.Loads = append(overCap.Axes.Loads, float64(i))
		overCap.Axes.FailFracs = append(overCap.Axes.FailFracs, float64(i)/257)
	}
	overCap.Axes.FailFracs = overCap.Axes.FailFracs[:256]
	overCapBody, err := json.Marshal(ScenarioRequest{Matrix: overCap})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, method, target, body string
		want                       string // substring the error must carry, if any
	}{
		{"unknown param", "GET", "/nexthop?" + testFabricQ + "&src=0&dst=1&bogus=1", "", `unknown query parameter "bogus"`},
		{"paths unknown param", "GET", "/paths?bogus=1", "", `unknown query parameter "bogus"`},
		{"missing topo", "GET", "/nexthop?src=0&dst=1", "", `missing required query parameter "topo" (topology kind: SF, DF, HX, XP, FT3, JF, Clique, Star)`},
		{"missing src", "GET", "/nexthop?" + testFabricQ + "&dst=1", "", `missing required query parameter "src"`},
		{"non-integer", "GET", "/nexthop?" + testFabricQ + "&src=zero&dst=1", "", `query parameter "src": "zero" is not an integer`},
		{"non-integer param", "GET", "/paths?topo=SF&param=five&src=0&dst=1", "", `query parameter "param": "five" is not an integer`},
		{"non-integer layer", "GET", "/nexthop?" + testFabricQ + "&layer=x&src=0&dst=1", "", `query parameter "layer": "x" is not an integer`},
		{"non-number rho", "GET", "/nexthop?topo=SF&rho=high&src=0&dst=1", "", `query parameter "rho": "high" is not a number`},
		{"src range", "GET", "/nexthop?" + testFabricQ + "&src=50&dst=1", "", ""},
		{"dst range", "GET", "/nexthop?" + testFabricQ + "&src=0&dst=-1", "", ""},
		{"layer range", "GET", "/nexthop?" + testFabricQ + "&layer=2&src=0&dst=1", "", "layer 2 outside [0,2)"},
		{"bad topo kind", "GET", "/nexthop?topo=NOPE&src=0&dst=1", "", ""},
		{"rho NaN", "GET", "/nexthop?topo=SF&param=5&layers=2&rho=NaN&src=0&dst=1", "", "rho"},
		{"star without param", "GET", "/nexthop?topo=Star&src=0&dst=1", "", "param"},
		{"class with param", "GET", "/nexthop?topo=SF&param=5&class=medium&src=0&dst=1", "", "class"},
		{"param2 without param", "GET", "/nexthop?topo=HX&param2=3&src=0&dst=1", "", "param2"},
		{"DF param2", "GET", "/nexthop?topo=DF&param=3&param2=7&src=0&dst=1", "", "param2"},
		{"Star param2", "GET", "/nexthop?topo=Star&param=4&param2=2&src=0&dst=1", "", "param2"},
		{"paths layer range", "GET", "/paths?" + testFabricQ + "&src=0&dst=1&layer=9", "", ""},
		{"paths negative layer", "GET", "/paths?" + testFabricQ + "&src=0&dst=1&layer=-7", "", "layer -7 outside [0,2)"},
		{"whatif bad json", "POST", "/whatif", "{", "request body: unexpected EOF"},
		{"whatif unknown field", "POST", "/whatif", `{"fabric":{"topology":{"kind":"SF","param":5}},"edges":[1]}`, `request body: json: unknown field "edges"`},
		{"whatif two values", "POST", "/whatif", `{"fabric":{"topology":{"kind":"SF","param":5},"layers":2,"rho":0.7}} {"failedEdges":[1]}`, "request body: more than one JSON value"},
		{"whatif edge range", "POST", "/whatif", `{"fabric":{"topology":{"kind":"SF","param":5},"layers":2,"rho":0.7},"failedEdges":[99999]}`, "failed edge 99999 outside [0,175)"},
		{"whatif query range", "POST", "/whatif", `{"fabric":{"topology":{"kind":"SF","param":5},"layers":2,"rho":0.7},"queries":[{"layer":0,"src":0,"dst":400}]}`, "dst router 400 outside [0,50)"},
		{"scenarios trailing junk", "POST", "/scenarios", `{"matrix":{"base":{"topology":{"kind":"SF","param":5},"pattern":{"kind":"uniform"}}}} junk`, "after the JSON value"},
		{"scenarios bad matrix", "POST", "/scenarios", `{"matrix":{"base":{"topology":{"kind":"SF"},"pattern":{"kind":"uniform"}},"axes":{"rhos":[0.5,0.5]}}}`, ""},
		{"scenarios over-cap matrix", "POST", "/scenarios", string(overCapBody), `"over-cap": cross product of 65792 cells`},
	}
	for _, c := range cases {
		code, body := do(t, s, c.method, c.target, c.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, code, body)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: body %q is not an error object", c.name, body)
		}
		if !strings.Contains(e.Error, c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, e.Error, c.want)
		}
		if c.target == "/whatif" && e.Error != c.want {
			t.Errorf("%s: error %q, want %q word for word", c.name, e.Error, c.want)
		}
	}
	// A failed build must not occupy LRU capacity.
	if n := s.Fabrics().Len(); n != 1 {
		t.Fatalf("%d resident fabrics after the 400 walk, want 1 (the valid one)", n)
	}
	// The FT alias is valid and names the FT3 fabric: both spellings answer
	// 200 with the same bytes from one admission.
	misses := s.reg.Snapshot()[obs.MetricServeFabricMisses]
	codeFT, bodyFT := get(t, s, "/nexthop?topo=FT&param=4&layers=2&rho=0.7&layer=1&src=0&dst=7")
	codeFT3, bodyFT3 := get(t, s, "/nexthop?topo=FT3&param=4&layers=2&rho=0.7&layer=1&src=0&dst=7")
	if codeFT != http.StatusOK || codeFT3 != http.StatusOK || string(bodyFT) != string(bodyFT3) {
		t.Fatalf("topo=FT: %d %s\ntopo=FT3: %d %s", codeFT, bodyFT, codeFT3, bodyFT3)
	}
	if built := s.reg.Snapshot()[obs.MetricServeFabricMisses] - misses; built != 1 {
		t.Fatalf("topo=FT then topo=FT3 admitted %d fabrics, want 1", built)
	}
}

// TestBodyLimit: both POST endpoints refuse a body over maxBodyBytes with
// 413 before decoding it, unless it is malformed before the limit, which
// is a 400 naming the fault; a body under the limit is served as before.
func TestBodyLimit(t *testing.T) {
	s := testServer(t, Config{MaxFabrics: 1})
	fabric := `"fabric":{"topology":{"kind":"SF","param":5},"layers":2,"rho":0.7}`
	huge := `{` + fabric + `,"failedEdges":[` + strings.Repeat("0,", maxBodyBytes/2) + `0]}`
	for _, target := range []string{"/whatif", "/scenarios"} {
		code, body := post(t, s, target, huge)
		var e struct {
			Error string `json:"error"`
		}
		if code != http.StatusRequestEntityTooLarge || json.Unmarshal(body, &e) != nil || e.Error == "" {
			t.Errorf("%s with a %d-byte body: status %d body %q, want 413 and an error object", target, len(huge), code, body)
		}
	}
	// Malformed at its second byte: the decoder stops there, before the
	// limit, as it would on a short body.
	const malformed = `{"error":"request body: invalid character 'x' looking for beginning of object key string"}` + "\n"
	for _, target := range []string{"/whatif", "/scenarios"} {
		if code, body := post(t, s, target, `{x`+strings.Repeat(" ", maxBodyBytes)); code != http.StatusBadRequest || string(body) != malformed {
			t.Errorf("%s with a malformed body over the limit: status %d body %q, want 400 and %q", target, code, body, malformed)
		}
	}
	if code, body := post(t, s, "/whatif", `{`+fabric+`,"failedEdges":[0]}`); code != http.StatusOK {
		t.Fatalf("normal /whatif body: status %d (%s)", code, body)
	}
}

// TestScenariosEndpoint submits a small matrix and checks the streamed
// JSONL protocol plus the determinism contract: the final result line
// matches an offline RunSpecs of the same matrix and seed exactly.
func TestScenariosEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulations")
	}
	s := testServer(t, Config{MaxFabrics: 2})
	m := scenario.Matrix{
		Name: "serve-smoke",
		Base: scenario.Spec{
			Topology:  scenario.Topology{Kind: "SF", Param: 5},
			Rho:       0.7,
			Pattern:   scenario.Pattern{Kind: "uniform"},
			FlowSize:  scenario.FlowSize{Bytes: 2048},
			HorizonMs: 20,
		},
		Axes: scenario.Axes{Layers: []int{1, 2}},
	}
	body, _ := json.Marshal(ScenarioRequest{Matrix: m, Seed: 7})
	code, out := post(t, s, "/scenarios", string(body))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	types := map[string]int{}
	for _, ln := range lines {
		var rec struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("non-JSON stream line %q: %v", ln, err)
		}
		types[rec.Type]++
	}
	if types["run_start"] != 1 || types["cell"] != 2 || types["run_end"] != 1 || types["result"] != 1 {
		t.Fatalf("stream records %v, want 1 run_start / 2 cell / 1 run_end / 1 result", types)
	}
	var final struct {
		Type    string                `json:"type"`
		Cells   int                   `json:"cells"`
		Results []scenario.CellResult `json:"results"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	if final.Type != "result" || final.Cells != 2 {
		t.Fatalf("final line %+v, want type=result cells=2", final)
	}
	cells, _, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.RunSpecs(cells, scenario.RunOptions{Run: exec.Run{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(final.Results)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("streamed results diverged from offline RunSpecs:\n  daemon  %s\n  offline %s", gb, wb)
	}
}

// TestSmokeFixtures pins the committed CI daemon-smoke fixtures: the same
// requests the workflow curls against a live daemon must produce these
// bytes. Regenerate with -update after an intentional engine change. The
// request file states "fabric" and "failedEdges" twice; read as
// encoding/json reads it, it is the canonical /whatif request before it,
// and gets the same answer.
func TestSmokeFixtures(t *testing.T) {
	s := testServer(t, Config{MaxFabrics: 8}) // cmd/fatpathsd defaults
	repeated, err := os.ReadFile(filepath.Join("testdata", "smoke_whatif_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []struct {
		file, method, target, body string
	}{
		{"smoke_nexthop.json", "GET", "/nexthop?" + testFabricQ + "&layer=1&src=3&dst=17", ""},
		{"smoke_paths.json", "GET", "/paths?" + testFabricQ + "&src=3&dst=17", ""},
		{"smoke_whatif.json", "POST", "/whatif",
			`{"fabric":{"topology":{"kind":"SF","param":5},"layers":2,"rho":0.7},"failedEdges":[0,7],"queries":[{"layer":1,"src":3,"dst":17},{"layer":0,"src":0,"dst":49}]}`},
		{"smoke_whatif.json", "POST", "/whatif", string(repeated)},
		// Healthz last: the requests above admit exactly one fabric.
		{"smoke_healthz.json", "GET", "/healthz", ""},
	}
	for _, f := range fixtures {
		code, got := do(t, s, f.method, f.target, f.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", f.file, code, got)
		}
		path := filepath.Join("testdata", f.file)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create fixtures)", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s drifted from the committed fixture:\n  got  %s  want %s", f.file, got, want)
		}
	}
}

// TestMetricsAndHealth checks the observability endpoints end to end:
// request/latency/cache metrics accumulate and /healthz reports the
// census.
func TestMetricsAndHealth(t *testing.T) {
	s := testServer(t, Config{MaxFabrics: 1})
	get(t, s, "/nexthop?"+testFabricQ+"&src=0&dst=1")
	get(t, s, "/nexthop?"+testFabricQ+"&src=0&dst=2")
	get(t, s, "/nexthop?bad=1")

	code, body := get(t, s, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	var h HealthAnswer
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Fabrics != 1 || h.MaxFabrics != 1 || h.Fingerprint != scenario.EngineFingerprint {
		t.Fatalf("healthz answer %+v", h)
	}

	code, body = get(t, s, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	dump := string(body)
	for _, name := range []string{
		obs.MetricServeRequests, obs.MetricServeErrors, obs.MetricServeLatencyMs,
		obs.MetricServeFabricHits, obs.MetricServeFabricMisses, obs.MetricServeFabricsResident,
	} {
		if !strings.Contains(dump, name) {
			t.Errorf("metrics dump lacks %s", name)
		}
	}
	snap := s.reg.Snapshot()
	// 4 requests so far (healthz and metrics count too, minus this dump's
	// own request which Snapshot preceded): pin the concrete ledger.
	if snap[obs.MetricServeRequests] < 4 {
		t.Fatalf("requests %d, want >= 4", snap[obs.MetricServeRequests])
	}
	if snap[obs.MetricServeErrors] != 1 {
		t.Fatalf("errors %d, want 1", snap[obs.MetricServeErrors])
	}
	if snap[obs.MetricServeFabricHits] != 1 || snap[obs.MetricServeFabricMisses] != 1 {
		t.Fatalf("fabric hits/misses %d/%d, want 1/1",
			snap[obs.MetricServeFabricHits], snap[obs.MetricServeFabricMisses])
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}
