package scenario

import (
	"fmt"
	"hash/fnv"
	"os"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/topo"
)

// DefaultSeed is the run seed when none is named: every command's -seed
// default, and a daemon request's seed when it is 0.
const DefaultSeed = 42

// RunOptions control scenario execution: the run context (exec.Run — seed,
// worker count, observers) plus the durable runtime's two stores, each
// opened once by whoever owns its flag; nil means off. The zero value runs
// on all cores at seed 0, uncached and unjournaled. Every cell runs at
// Run.Seed.
type RunOptions struct {
	exec.Run
	// Cache, when non-nil, serves the cells it holds without simulating and
	// persists freshly simulated ones. The determinism contract makes hits
	// exact: tables are byte-identical with the cache hot, cold, or absent.
	Cache *Cache
	// Journal, when non-nil, receives an append-only cell_done record for
	// every completed cell (simulated or cache-hit), enabling crash-resume.
	// The cells a journal from ResumeJournal already records merge into
	// the output without re-execution and without re-journaling.
	Journal *Journal
}

// CellResult is the measured outcome of one scenario cell.
type CellResult struct {
	Spec Spec `json:"spec"`
	// TopoName/TopoN describe the built topology (e.g. "SF(q=5,p=8)").
	TopoName string `json:"topoName"`
	TopoN    int    `json:"topoN"`
	// Layers/Rho are the resolved routing configuration (after topology
	// defaults were applied).
	Layers int     `json:"layers"`
	Rho    float64 `json:"rho"`
	// Flows is the total simulated flow count over all replicas.
	Flows int `json:"flows"`
	// Completed is the fraction of flows finishing within the horizon.
	Completed float64 `json:"completed"`
	// Throughput digests completed-flow goodput in MiB/s.
	Throughput stats.Summary `json:"throughput"`
	// FCT digests completed-flow completion times in milliseconds.
	FCT stats.Summary `json:"fct"`
	// Drops/Trims sum packet drops and NDP trims over all replicas.
	Drops int64 `json:"drops"`
	Trims int64 `json:"trims"`
	// FailedLinks is the number of links failed per replica.
	FailedLinks int `json:"failedLinks,omitempty"`
	// MAT is the maximum achievable throughput (only when Spec.MAT).
	MAT float64 `json:"mat,omitempty"`
}

// seedFor folds a run seed with a resource tag, partitioning the seed space
// by the canonical identity of the resource. Cells agreeing on a tag agree
// on the derived seed regardless of cell index, worker count, or which
// matrix produced them.
func seedFor(runSeed int64, tag string) int64 {
	h := fnv.New64a()
	h.Write([]byte(tag))
	return exec.FoldSeed(runSeed, h.Sum64())
}

// resources dedupes topology and fabric construction across the cells of
// one run, keyed by Topology.key and FabricKey. The routing engine inside
// a fabric is safe for concurrent simulations, so cells share freely.
type resources struct {
	topos *Store[*topo.Topology]
	fabs  *Store[*core.Fabric]
}

// SimConfig maps the spec's transport and routing names onto a netsim
// configuration. It rejects an unknown name itself: hand-rolled runners
// pass specs that were never validated.
func SimConfig(s Spec) (netsim.Config, error) {
	tr, ok := transports[s.transport()]
	if !ok {
		return netsim.Config{}, fmt.Errorf("scenario: unknown transport %q", s.Transport)
	}
	lb, ok := routings[s.routing()]
	if !ok {
		return netsim.Config{}, fmt.Errorf("scenario: unknown routing %q", s.Routing)
	}
	cfg := netsim.NDPDefaults()
	if tr != netsim.TransportNDP {
		cfg = netsim.TCPDefaults(tr)
	}
	cfg.LB = lb
	return cfg, nil
}

// coreConfig resolves the layer configuration against topology defaults.
func coreConfig(s Spec, t *topo.Topology, layerSeed int64) core.Config {
	cc := core.DefaultConfig(t)
	if s.Layers > 0 {
		cc.NumLayers = s.Layers
	}
	if s.Rho > 0 {
		cc.Rho = s.Rho
	}
	cc.Scheme = constructions[s.construction()]
	cc.Seed = layerSeed
	return cc
}

// runCell executes cell i: build (or fetch) the fabric, compile and
// validate the pattern, then simulate Replicas times and aggregate.
func runCell(s Spec, i int, rs resources, o RunOptions) (CellResult, error) {
	if err := s.Validate(); err != nil {
		return CellResult{}, err
	}
	// One run has one seed, so the topology store keys by topology alone.
	// The builders are the exported resource constructors (resources.go)
	// the fabric daemon shares, so a resident daemon fabric and a sweep
	// fabric with equal keys are behaviorally identical.
	t, err := rs.topos.Get(s.Topology.key(), func() (*topo.Topology, error) {
		return BuildTopology(s, o.Seed)
	})
	if err != nil {
		return CellResult{}, err
	}
	fab, err := rs.fabs.Get(s.FabricKey(o.Seed), func() (*core.Fabric, error) {
		return BuildFabricOn(s, t, o.Seed, o.Obs)
	})
	if err != nil {
		return CellResult{}, err
	}
	pat, err := s.Pattern.build(t, seedFor(o.Seed, "pattern|"+s.Topology.key()+"|"+s.Pattern.key()))
	if err != nil {
		return CellResult{}, err
	}
	if err := pat.ValidateFlows(); err != nil {
		return CellResult{}, fmt.Errorf("scenario: compiled pattern invalid: %w", err)
	}

	cfg, err := SimConfig(s)
	if err != nil {
		return CellResult{}, err
	}
	cfg.Metrics = obs.NewSimMetrics(o.Obs)
	cfg.Tracer = o.CellTracer(i)
	horizon := netsim.Time(s.horizonMs() * 1e6)
	workloadSeed := seedFor(o.Seed, "workload|"+s.workloadKey())
	simSeed := seedFor(o.Seed, "sim|"+s.workloadKey())
	failSeed := seedFor(o.Seed, "fail|"+s.Topology.key()+"|"+fmtG(s.FailFrac))
	nFail := int(s.FailFrac * float64(t.G.M()))
	wl := core.Workload{Pattern: pat, FlowSize: s.FlowSize.sampler(), Lambda: s.Load}

	res := CellResult{
		Spec: s, TopoName: t.Name, TopoN: t.N(),
		Layers: fab.Cfg.NumLayers, Rho: fab.Cfg.Rho, FailedLinks: nFail,
	}
	var thr, fct stats.Sample
	done := 0
	for rep := 0; rep < s.replicas(); rep++ {
		// The simulation's own draws (flowlet salts, layer picks) follow the
		// run seed and the replicate, as the workload's do.
		//det:allow seedfold -- rep is the replicate number, a stable coordinate of the resource key (folded over simSeed), not an enumeration index
		cfg.Seed = exec.FoldSeed(simSeed, uint64(rep))
		sim := fab.NewSimulation(cfg)
		if nFail > 0 {
			//det:allow seedfold -- rep is the replicate number, a stable coordinate of the resource key (folded over failSeed), not an enumeration index
			sim.Net.FailRandomLinks(nFail, graph.NewRand(exec.FoldSeed(failSeed, uint64(rep))))
		}
		//det:allow seedfold -- rep is the replicate number, a stable coordinate of the resource key (folded over workloadSeed), not an enumeration index
		wl.Schedule(sim, graph.NewRand(exec.FoldSeed(workloadSeed, uint64(rep))))
		frs := sim.Run(horizon)
		res.Flows += len(frs)
		for _, fr := range frs {
			if fr.Done {
				done++
				thr.Add(fr.ThroughputMiBs())
				fct.Add(fr.FCT().Seconds() * 1e3)
			}
		}
		res.Drops += sim.Net.TotalDrops()
		res.Trims += sim.Net.TotalTrims()
	}
	if res.Flows > 0 {
		res.Completed = float64(done) / float64(res.Flows)
	}
	res.Throughput = thr.Summarize()
	res.FCT = fct.Summarize()
	if s.MAT {
		mat, err := fab.MAT(pat, 0.12)
		if err != nil {
			return CellResult{}, fmt.Errorf("scenario: MAT: %w", err)
		}
		res.MAT = mat
	}
	return res, nil
}

// acquireCell produces one cell's result from, in order of preference,
// the journal (the records of the run it resumes), the content-addressed
// cache, or a fresh simulation. It returns the telemetry source tag:
// "resume", "cache", or "" for a simulated cell. Resumed cells are not
// re-journaled (their record is already in the journal being appended
// to); cache hits and fresh results are, so a later resume can skip them.
// A cache write failure downgrades the run to uncached (with a stderr
// warning) rather than aborting it; a journal write failure aborts — the
// caller asked for durability.
func acquireCell(s Spec, i int, rs resources, o RunOptions, sm *obs.ScenarioMetrics) (CellResult, string, error) {
	if r, ok := o.Journal.recorded(s, o.Seed); ok {
		if sm != nil {
			sm.CellsResumed.Inc()
		}
		return r, "resume", nil
	}
	if r, n, ok := o.Cache.Get(s, o.Seed); ok {
		if sm != nil {
			sm.CacheHits.Inc()
			sm.CacheBytesRead.Add(int64(n))
		}
		if err := o.Journal.Record(s, o.Seed, r); err != nil {
			return CellResult{}, "", err
		}
		return r, "cache", nil
	}
	r, err := runCell(s, i, rs, o)
	if err != nil {
		return CellResult{}, "", err
	}
	if o.Cache != nil {
		if sm != nil {
			sm.CacheMisses.Inc()
		}
		if n, err := o.Cache.Put(s, o.Seed, r); err != nil {
			fmt.Fprintf(os.Stderr, "scenario: cache write failed (continuing uncached): %v\n", err)
		} else if sm != nil {
			sm.CacheBytesWritten.Add(int64(n))
		}
	}
	if err := o.Journal.Record(s, o.Seed, r); err != nil {
		return CellResult{}, "", err
	}
	return r, "", nil
}

// RunSpecs executes concrete cells over the shared cell loop (exec.Cells)
// and returns their results in cell order. Output is byte-identical for
// every Parallelism value: each cell's randomness derives from (seed,
// canonical resource keys) alone, and shared fabrics are pure functions of
// their keys. The same guarantee extends to the durable runtime — a cell
// satisfied from a resumed journal or the result cache is byte-identical
// to a freshly simulated one (replay equals rerun).
func RunSpecs(cells []Spec, o RunOptions) ([]CellResult, error) {
	sm := obs.NewScenarioMetrics(o.Obs)
	rs := resources{NewStore[*topo.Topology](0), NewStore[*core.Fabric](0)}
	return exec.Cells(o.Run, len(cells),
		func(i int) string { return cells[i].Key() },
		func(i int) (CellResult, string, error) {
			return acquireCell(cells[i], i, rs, o, sm)
		})
}

// Table renders results as the canonical scenario table. A MAT column
// appears iff any cell requested it.
func Table(title string, results []CellResult) *stats.Table {
	withMAT := false
	for _, r := range results {
		if r.Spec.MAT {
			withMAT = true
			break
		}
	}
	tab := &stats.Table{
		Title: title,
		Headers: []string{
			"topology", "N", "n", "rho", "constr", "routing", "transport",
			"pattern", "size", "load", "fail", "flows", "completed",
			"thr MiB/s", "thr p1", "FCT ms", "FCT p50", "FCT p99",
			"drops", "trims",
		},
	}
	if withMAT {
		tab.Headers = append(tab.Headers, "MAT")
	}
	for _, r := range results {
		row := []interface{}{
			r.TopoName, r.TopoN, r.Layers, r.Rho, r.Spec.construction(),
			r.Spec.routing(), r.Spec.transport(), r.Spec.Pattern.label(),
			r.Spec.FlowSize.label(), r.Spec.Load, r.Spec.FailFrac, r.Flows,
			fmt.Sprintf("%.1f%%", 100*r.Completed),
			r.Throughput.Mean, r.Throughput.P01,
			r.FCT.Mean, r.FCT.P50, r.FCT.P99, r.Drops, r.Trims,
		}
		if withMAT {
			row = append(row, r.MAT)
		}
		tab.AddRowf(row...)
	}
	return tab
}
