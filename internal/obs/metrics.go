package obs

// This file defines the typed metric bundles the instrumented subsystems
// hold: one struct per layer, built from a shared Registry so every
// simulation, fabric, and worker of a run accumulates into the same named
// metrics. A nil bundle (from a nil registry) is the disabled path — the
// holder guards each flush with one nil check.

// Simulator metric names (see README "Observability" for the catalog).
const (
	MetricSimEvents          = "netsim.events_processed"
	MetricSimQueueHighWater  = "netsim.event_queue_highwater"
	MetricSimInflightHW      = "netsim.packets_inflight_highwater"
	MetricSimFCTms           = "netsim.flow_fct_ms"
	MetricSimPathHops        = "netsim.flow_path_hops"
	MetricSimFlowletReroutes = "netsim.flowlet_reroutes"
	MetricSimTrims           = "netsim.ndp_trims"
	MetricSimRetransmits     = "netsim.retransmits"
	MetricSimTCPTimeouts     = "netsim.tcp_timeouts"
	MetricSimDrops           = "netsim.drops"
	MetricSimFlowsCompleted  = "netsim.flows_completed"
	// Inert: nothing registers a metric under this name any more. The
	// constant stays only because the frozen bench/layers.go looks it up;
	// the [benchmark] PR of ROADMAP item 1(a) deletes it.
	MetricSimBarrierStalls = "netsim.barrier_stalls"
)

// Durable-sweep-runtime metric names (internal/scenario cache + journal).
const (
	MetricScenarioCacheHits     = "scenario.cache_hits"
	MetricScenarioCacheMisses   = "scenario.cache_misses"
	MetricScenarioCellsResumed  = "scenario.cells_resumed"
	MetricScenarioCacheBytesIn  = "scenario.cache_bytes_read"
	MetricScenarioCacheBytesOut = "scenario.cache_bytes_written"
)

// Fabric-daemon metric names (cmd/fatpathsd / internal/serve).
const (
	MetricServeRequests        = "fatpathsd.requests"
	MetricServeErrors          = "fatpathsd.request_errors"
	MetricServeLatencyMs       = "fatpathsd.request_latency_ms"
	MetricServeFabricHits      = "fatpathsd.fabric_cache_hits"
	MetricServeFabricMisses    = "fatpathsd.fabric_cache_misses"
	MetricServeFabricEvicts    = "fatpathsd.fabric_cache_evictions"
	MetricServeFabricsResident = "fatpathsd.fabrics_resident"
	MetricServeTableBytes      = "fatpathsd.table_bytes_resident"
	MetricServeWhatifViews     = "fatpathsd.whatif_views_derived"
	MetricServeScenarioRuns    = "fatpathsd.scenario_runs"
)

// Routing-core metric names.
const (
	MetricRoutingTablesBuilt = "routing.tables_built"
	MetricRoutingCSREntries  = "routing.csr_entries_deployed"
	MetricRoutingInvalidated = "routing.tables_invalidated"
	MetricRoutingShared      = "routing.tables_shared"
	// Inert: nothing registers a metric under this name any more (tables
	// are published without locks). The constant stays only because the
	// frozen bench/layers.go looks it up; the [benchmark] PR of ROADMAP
	// item 1(b) deletes it.
	MetricRoutingStripeContend = "routing.stripe_lock_contention"
)

// FCTBucketsMs are the flow-completion-time histogram bounds in
// milliseconds: log-spaced from 10µs to 10s, covering quick-mode RTTs
// through paper-scale horizons.
var FCTBucketsMs = []float64{
	0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50,
	100, 200, 500, 1000, 2000, 5000, 10000,
}

// PathHopBuckets are the per-packet router-hop histogram bounds; FatPaths
// paths on low-diameter topologies are short, with a tail for sparse-layer
// detours.
var PathHopBuckets = []float64{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32}

// SimMetrics is the simulator's metric bundle. Simulations accumulate
// locally (plain fields on the single-goroutine hot paths) and flush here
// once per Run, so concurrent replicates on different workers share these
// atomics without contending per event.
type SimMetrics struct {
	// Events counts executed discrete events; QueueHighWater is the
	// largest event-queue depth any simulation reached.
	Events         *Counter
	QueueHighWater *Gauge
	// InflightHighWater is the largest live-packet count of any simulation.
	InflightHighWater *Gauge
	// FCTms digests completed-flow completion times; PathHops digests
	// router hops per delivered data packet.
	FCTms    *Histogram
	PathHops *Histogram
	// FlowletReroutes counts layer re-selections at flowlet boundaries;
	// Trims counts NDP payload trims; Retransmits counts retransmitted
	// packets; TCPTimeouts counts RTO firings; Drops counts lost packets.
	FlowletReroutes *Counter
	Trims           *Counter
	Retransmits     *Counter
	TCPTimeouts     *Counter
	Drops           *Counter
	FlowsCompleted  *Counter
}

// NewSimMetrics returns the simulator bundle backed by r, or nil (the
// disabled bundle) when r is nil. Bundles from one registry share state.
func NewSimMetrics(r *Registry) *SimMetrics {
	if r == nil {
		return nil
	}
	return &SimMetrics{
		Events:            r.Counter(MetricSimEvents),
		QueueHighWater:    r.Gauge(MetricSimQueueHighWater),
		InflightHighWater: r.Gauge(MetricSimInflightHW),
		FCTms:             r.Histogram(MetricSimFCTms, FCTBucketsMs),
		PathHops:          r.Histogram(MetricSimPathHops, PathHopBuckets),
		FlowletReroutes:   r.Counter(MetricSimFlowletReroutes),
		Trims:             r.Counter(MetricSimTrims),
		Retransmits:       r.Counter(MetricSimRetransmits),
		TCPTimeouts:       r.Counter(MetricSimTCPTimeouts),
		Drops:             r.Counter(MetricSimDrops),
		FlowsCompleted:    r.Counter(MetricSimFlowsCompleted),
	}
}

// ScenarioMetrics is the durable sweep runtime's bundle: content-addressed
// cache effectiveness (hits, misses, bytes moved) and journal-resume
// volume. Hits and misses count only runs with a cache attached; resumed
// cells count only runs continuing a journal.
type ScenarioMetrics struct {
	CacheHits         *Counter
	CacheMisses       *Counter
	CellsResumed      *Counter
	CacheBytesRead    *Counter
	CacheBytesWritten *Counter
}

// NewScenarioMetrics returns the scenario bundle backed by r, or nil (the
// disabled bundle) when r is nil.
func NewScenarioMetrics(r *Registry) *ScenarioMetrics {
	if r == nil {
		return nil
	}
	return &ScenarioMetrics{
		CacheHits:         r.Counter(MetricScenarioCacheHits),
		CacheMisses:       r.Counter(MetricScenarioCacheMisses),
		CellsResumed:      r.Counter(MetricScenarioCellsResumed),
		CacheBytesRead:    r.Counter(MetricScenarioCacheBytesIn),
		CacheBytesWritten: r.Counter(MetricScenarioCacheBytesOut),
	}
}

// RequestLatencyBucketsMs are the daemon request-latency histogram bounds
// in milliseconds: log-spaced from microsecond-class lock-free table reads
// to multi-second fabric builds and scenario runs.
var RequestLatencyBucketsMs = []float64{
	0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10,
	20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
}

// ServeMetrics is the fabric daemon's bundle: request volume and latency,
// resident-fabric LRU effectiveness, and per-request what-if view volume.
type ServeMetrics struct {
	// Requests counts every handled HTTP request; Errors counts the ones
	// answered with a 4xx/5xx status; LatencyMs digests wall-clock request
	// latency (observational only — never feeds an answer).
	Requests  *Counter
	Errors    *Counter
	LatencyMs *Histogram
	// FabricHits/FabricMisses/FabricEvictions count resident-fabric LRU
	// lookups; FabricsResident gauges the current cache population and
	// TableBytes the routing-table bytes it holds.
	FabricHits      *Counter
	FabricMisses    *Counter
	FabricEvictions *Counter
	FabricsResident *Gauge
	TableBytes      *Gauge
	// WhatifViews counts copy-on-write WithoutEdges views derived for
	// /whatif requests; ScenarioRuns counts /scenarios submissions.
	WhatifViews  *Counter
	ScenarioRuns *Counter
}

// NewServeMetrics returns the daemon bundle backed by r, or nil (the
// disabled bundle) when r is nil.
func NewServeMetrics(r *Registry) *ServeMetrics {
	if r == nil {
		return nil
	}
	return &ServeMetrics{
		Requests:        r.Counter(MetricServeRequests),
		Errors:          r.Counter(MetricServeErrors),
		LatencyMs:       r.Histogram(MetricServeLatencyMs, RequestLatencyBucketsMs),
		FabricHits:      r.Counter(MetricServeFabricHits),
		FabricMisses:    r.Counter(MetricServeFabricMisses),
		FabricEvictions: r.Counter(MetricServeFabricEvicts),
		FabricsResident: r.Gauge(MetricServeFabricsResident),
		TableBytes:      r.Gauge(MetricServeTableBytes),
		WhatifViews:     r.Counter(MetricServeWhatifViews),
		ScenarioRuns:    r.Counter(MetricServeScenarioRuns),
	}
}

// RoutingMetrics is the routing-core bundle: table materialization volume
// and incremental-invalidation effectiveness.
type RoutingMetrics struct {
	// TablesBuilt counts lazily or eagerly materialized (layer, dst)
	// tables; CSREntries counts their deployed candidate entries.
	TablesBuilt *Counter
	CSREntries  *Counter
	// TablesInvalidated / TablesShared count, per WithoutEdges repair, the
	// built tables that had to be discarded vs reused from the parent.
	TablesInvalidated *Counter
	TablesShared      *Counter
}

// NewRoutingMetrics returns the routing bundle backed by r, or nil when r
// is nil.
func NewRoutingMetrics(r *Registry) *RoutingMetrics {
	if r == nil {
		return nil
	}
	return &RoutingMetrics{
		TablesBuilt:       r.Counter(MetricRoutingTablesBuilt),
		CSREntries:        r.Counter(MetricRoutingCSREntries),
		TablesInvalidated: r.Counter(MetricRoutingInvalidated),
		TablesShared:      r.Counter(MetricRoutingShared),
	}
}
