// Fabric-daemon walkthrough: start the fatpathsd serving layer
// (internal/serve) on a loopback listener, then play a client session
// against it — resident-fabric admission, lock-free next-hop reads, the
// path-diversity view, copy-on-write what-if failure analysis, and a
// streamed scenario run — and finish by checking the daemon half of the
// determinism contract: the served next-hop answer is byte-identical to
// an offline engine built from the same spec and seed.
//
//	go run ./examples/daemon
//
// For the long-running daemon itself use `go run ./cmd/fatpathsd` and the
// curl lines in README.md ("Fabric daemon").
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/serve"
)

const fabricQ = "topo=SF&param=5&layers=4&rho=0.7" // SlimFly q=5: 50 routers

func main() {
	reg := obs.NewRegistry()
	s := serve.New(serve.Config{MaxFabrics: 4}, reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("daemon listening on", base)

	// First query admits (builds) the fabric; repeats are resident hits.
	fmt.Println("\n-- GET /nexthop (admission, then two resident reads)")
	for _, q := range []string{"layer=0&src=3&dst=17", "layer=1&src=3&dst=17", "layer=2&src=3&dst=17"} {
		fmt.Printf("  %s -> %s", q, get(base+"/nexthop?"+fabricQ+"&"+q))
	}

	fmt.Println("\n-- GET /paths (the diversity the flowlet balancer chooses over)")
	fmt.Print(get(base + "/paths?" + fabricQ + "&src=3&dst=17"))

	fmt.Println("\n-- POST /whatif (copy-on-write view; resident fabric untouched)")
	whatif := `{"fabric":{"topology":{"kind":"SF","param":5},"layers":4,"rho":0.7},
	            "failedEdges":[0,7,11],"queries":[{"layer":1,"src":3,"dst":17}]}`
	fmt.Print(post(base+"/whatif", whatif))

	fmt.Println("\n-- POST /scenarios (streamed telemetry JSONL, final result line)")
	m := scenario.Matrix{
		Name: "daemon-walkthrough",
		Base: scenario.Spec{
			Topology:  scenario.Topology{Kind: "SF", Param: 5},
			Rho:       0.7,
			Pattern:   scenario.Pattern{Kind: "uniform"},
			FlowSize:  scenario.FlowSize{Bytes: 64 << 10},
			HorizonMs: 100,
		},
		Axes: scenario.Axes{Layers: []int{1, 4}},
	}
	body, _ := json.Marshal(serve.ScenarioRequest{Matrix: m, Seed: 42})
	for _, line := range strings.Split(strings.TrimSpace(post(base+"/scenarios", string(body))), "\n") {
		if len(line) > 100 {
			line = line[:100] + "…"
		}
		fmt.Println(" ", line)
	}

	fmt.Println("\n-- GET /healthz + the daemon's own metrics")
	fmt.Print(get(base + "/healthz"))
	snap := reg.Snapshot()
	fmt.Printf("  requests=%d fabric hits=%d misses=%d whatif views=%d\n",
		snap[obs.MetricServeRequests], snap[obs.MetricServeFabricHits],
		snap[obs.MetricServeFabricMisses], snap[obs.MetricServeWhatifViews])

	// The determinism pin: rebuild the same fabric offline (same spec,
	// same seed 42) and compare answers byte for byte.
	fmt.Println("\n-- determinism: daemon vs offline engine")
	spec := scenario.Spec{
		Topology: scenario.Topology{Kind: "SF", Param: 5},
		Layers:   4, Rho: 0.7,
	}
	_, fab, err := scenario.BuildFabric(spec, 42, nil)
	if err != nil {
		log.Fatal(err)
	}
	served := get(base + "/nexthop?" + fabricQ + "&layer=1&src=3&dst=17")
	offline := fmt.Sprintf(`{"layer":1,"src":3,"dst":17,"next":%d,"dist":%d,"candidates":%s}`,
		fab.Fwd.Next(1, 3, 17), fab.Fwd.PathLen(1, 3, 17),
		marshal(append([]int32{}, fab.Fwd.Candidates(1, 3, 17)...)))
	if !bytes.Equal([]byte(strings.TrimSpace(served)), []byte(offline)) {
		log.Fatalf("answers diverged:\n  daemon  %s\n  offline %s", served, offline)
	}
	fmt.Println("  byte-identical:", offline)
}

func marshal(v interface{}) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func get(url string) string { return read(http.Get(url)) }

func post(url, body string) string {
	return read(http.Post(url, "application/json", strings.NewReader(body)))
}

func read(resp *http.Response, err error) string {
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	return string(b)
}
