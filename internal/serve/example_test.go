package serve_test

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// Example plays a client session against the fatpathsd serving layer, in
// process: resident-fabric admission, lock-free next-hop reads, the
// path-diversity view, copy-on-write what-if failure analysis and a
// streamed scenario run. It ends on the daemon half of the determinism
// contract: the served next-hop answer is byte-identical to an offline
// engine built from the same spec and seed. For the long-running daemon
// use cmd/fatpathsd and the curl lines in README.md ("Fabric daemon").
func Example() {
	reg := obs.NewRegistry()
	h := serve.New(serve.Config{MaxFabrics: 4}, reg).Handler()
	call := func(method, target, body string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			log.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	const fabricQ = "topo=SF&param=5&layers=4&rho=0.7" // Slim Fly q=5: 50 routers

	fmt.Println("-- GET /nexthop (admission, then two resident reads)")
	for _, q := range []string{"layer=0&src=3&dst=17", "layer=1&src=3&dst=17", "layer=2&src=3&dst=17"} {
		fmt.Print(call("GET", "/nexthop?"+fabricQ+"&"+q, ""))
	}

	fmt.Println("-- GET /paths (the diversity the flowlet balancer chooses over)")
	fmt.Print(call("GET", "/paths?"+fabricQ+"&src=3&dst=17", ""))

	fmt.Println("-- POST /whatif (copy-on-write view; resident fabric untouched)")
	fmt.Print(call("POST", "/whatif", `{"fabric":{"topology":{"kind":"SF","param":5},"layers":4,"rho":0.7},
		"failedEdges":[0,7,11],"queries":[{"layer":1,"src":3,"dst":17}]}`))

	// The stream is telemetry JSONL (run_start, one cell record per cell
	// in completion order, run_end) and then one result line with the
	// cell results in canonical order.
	fmt.Println("-- POST /scenarios (streamed telemetry, final result line)")
	body, err := json.Marshal(serve.ScenarioRequest{Seed: 42, Matrix: scenario.Matrix{
		Name: "daemon-walkthrough",
		Base: scenario.Spec{
			Topology:  scenario.Topology{Kind: "SF", Param: 5},
			Rho:       0.7,
			Pattern:   scenario.Pattern{Kind: "uniform"},
			FlowSize:  scenario.FlowSize{Bytes: 64 << 10},
			HorizonMs: 100,
		},
		Axes: scenario.Axes{Layers: []int{1, 4}},
	}})
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(call("POST", "/scenarios", string(body))), "\n") {
		var rec struct {
			Type    string
			Results []scenario.CellResult
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			log.Fatal(err)
		}
		fmt.Println(rec.Type)
		for _, r := range rec.Results {
			fmt.Printf("  %s layers=%d: %d flows, %.0f%% completed, mean FCT %.3f ms\n",
				r.TopoName, r.Layers, r.Flows, 100*r.Completed, r.FCT.Mean)
		}
	}

	fmt.Println("-- GET /healthz and the daemon's own metrics")
	fmt.Print(call("GET", "/healthz", ""))
	snap := reg.Snapshot()
	fmt.Printf("requests=%d fabric hits=%d misses=%d whatif views=%d\n",
		snap[obs.MetricServeRequests], snap[obs.MetricServeFabricHits],
		snap[obs.MetricServeFabricMisses], snap[obs.MetricServeWhatifViews])

	// Rebuild the same fabric offline (same spec, the daemon's default
	// seed 42) and compare answers byte for byte.
	fmt.Println("-- determinism: daemon vs offline engine")
	_, fab, err := scenario.BuildFabric(scenario.Spec{
		Topology: scenario.Topology{Kind: "SF", Param: 5},
		Layers:   4, Rho: 0.7,
	}, 42, nil)
	if err != nil {
		log.Fatal(err)
	}
	cand, err := json.Marshal(fab.Fwd.AppendCandidates(nil, 1, 3, 17))
	if err != nil {
		log.Fatal(err)
	}
	offline := fmt.Sprintf(`{"layer":1,"src":3,"dst":17,"next":%d,"dist":%d,"candidates":%s}`,
		fab.Fwd.Next(1, 3, 17), fab.Fwd.PathLen(1, 3, 17), cand)
	served := strings.TrimSpace(call("GET", "/nexthop?"+fabricQ+"&layer=1&src=3&dst=17", ""))
	fmt.Println("byte-identical:", served == offline)
	// Output:
	// -- GET /nexthop (admission, then two resident reads)
	// {"layer":0,"src":3,"dst":17,"next":43,"dist":2,"candidates":[43]}
	// {"layer":1,"src":3,"dst":17,"next":43,"dist":2,"candidates":[43]}
	// {"layer":2,"src":3,"dst":17,"next":43,"dist":2,"candidates":[43]}
	// -- GET /paths (the diversity the flowlet balancer chooses over)
	// {"src":3,"dst":17,"layers":[{"layer":0,"len":2,"path":[3,43,17],"candidates":1},{"layer":1,"len":2,"path":[3,43,17],"candidates":1},{"layer":2,"len":2,"path":[3,43,17],"candidates":1},{"layer":3,"len":3,"path":[3,38,36,17],"candidates":2}],"distinctPaths":3}
	// -- POST /whatif (copy-on-write view; resident fabric untouched)
	// {"failedEdges":[0,7,11],"sharedTables":32,"invalidatedTables":168,"answers":[{"layer":1,"src":3,"dst":17,"next":43,"dist":2,"candidates":[43]}]}
	// -- POST /scenarios (streamed telemetry, final result line)
	// run_start
	// cell
	// cell
	// run_end
	// result
	//   SF(q=5,p=4) layers=1: 200 flows, 100% completed, mean FCT 0.164 ms
	//   SF(q=5,p=4) layers=4: 200 flows, 100% completed, mean FCT 0.159 ms
	// -- GET /healthz and the daemon's own metrics
	// {"status":"ok","fabrics":1,"maxFabrics":4,"fingerprint":"fatpaths-engine-v4"}
	// requests=7 fabric hits=4 misses=1 whatif views=1
	// -- determinism: daemon vs offline engine
	// byte-identical: true
}
