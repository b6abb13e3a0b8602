// Package serve is the fabric-as-a-service layer behind cmd/fatpathsd: a
// long-running HTTP/JSON daemon that keeps FatPaths fabrics resident in
// an LRU-bounded scenario.Store keyed by the scenario engine's canonical
// fabric resource keys, and serves concurrent clients.
//
// Endpoints:
//
//	GET  /nexthop    one (layer, src, dst) next-hop answer — a lock-free
//	                 read off the resident engine's tables
//	GET  /paths      per-layer representative paths and the deployed
//	                 path-diversity count for one router pair
//	POST /whatif     copy-on-write failure analysis: a per-request
//	                 WithoutEdges view (incremental, parent-sharing)
//	                 answers queries against the failed fabric
//	POST /scenarios  submit a scenario matrix; cells execute on the shared
//	                 worker pool with the content-addressed result cache,
//	                 per-cell progress streams back as JSONL
//	GET  /metrics    the obs registry (fatpathsd.*, routing.*, netsim.*)
//	GET  /healthz    liveness plus resident-fabric census
//
// The determinism contract extends to serving: a daemon answer and an
// offline engine at the same seed are byte-identical (pinned by
// TestServedAnswersMatchOfflineEngine and the CI daemon-smoke fixtures).
// Wall-clock time appears only in latency telemetry, never in answers.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/scenario"
)

// Config shapes the daemon.
type Config struct {
	// MaxFabrics bounds the resident-fabric LRU (minimum and default 1;
	// cmd/fatpathsd defaults to 8).
	MaxFabrics int
	// Cache, when non-nil, is the content-addressed scenario result cache
	// shared with cmd/scenarios (README "Durable sweeps").
	Cache *scenario.Cache
	// Parallelism is the scenario worker pool width (0 = all cores).
	Parallelism int
	// MaxScenarioRuns caps concurrently executing /scenarios submissions;
	// excess submissions queue (minimum and default 1). Path queries are
	// never queued — they only read resident tables.
	MaxScenarioRuns int
}

// Server hosts the handlers over one resident-fabric cache. Create with
// New, mount via Handler.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	met     *obs.ServeMetrics
	fabrics *FabricCache
	sem     chan struct{}
	mux     *http.ServeMux
}

// New builds a Server. reg may be nil (metrics disabled); when non-nil it
// also instruments every resident fabric (routing.* metrics) and every
// scenario simulation (netsim.*).
func New(cfg Config, reg *obs.Registry) *Server {
	met := obs.NewServeMetrics(reg)
	cfg.MaxFabrics = max(cfg.MaxFabrics, 1)
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		met:     met,
		fabrics: NewFabricCache(cfg.MaxFabrics, reg, met),
		sem:     make(chan struct{}, max(cfg.MaxScenarioRuns, 1)),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /nexthop", s.instrument(s.handleNexthop))
	s.mux.HandleFunc("GET /paths", s.instrument(s.handlePaths))
	s.mux.HandleFunc("POST /whatif", s.instrument(s.handleWhatif))
	s.mux.HandleFunc("POST /scenarios", s.instrument(s.handleScenarios))
	s.mux.HandleFunc("GET /metrics", s.instrument(s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.instrument(s.handleHealthz))
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Fabrics exposes the resident-fabric cache (health and tests).
func (s *Server) Fabrics() *FabricCache { return s.fabrics }

// instrument wraps a handler with the request/latency/error telemetry.
// Purely observational: the wall clock feeds the latency histogram only.
func (s *Server) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		if s.met != nil {
			s.met.Requests.Inc()
			if sw.code >= 400 {
				s.met.Errors.Inc()
			}
			s.met.LatencyMs.Observe(time.Since(start).Seconds() * 1e3)
		}
	}
}

// statusWriter captures the response status for the error counter and
// forwards Flush for the JSONL streaming endpoints.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// FabricSelector names a resident fabric in POST bodies: the
// fabric-defining axes of a scenario cell plus the run seed. The zero
// value of each field selects the same default the scenario engine uses.
type FabricSelector struct {
	Topology     scenario.Topology `json:"topology"`
	Layers       int               `json:"layers,omitempty"`
	Rho          float64           `json:"rho,omitempty"`
	Construction string            `json:"construction,omitempty"`
	// Seed is the run seed; 0 means defaultSeed.
	Seed int64 `json:"seed,omitempty"`
}

// defaultSeed is the run seed of a request that names none (or 0): the
// -seed default of cmd/experiments and cmd/scenarios.
const defaultSeed = 42

// spec converts the selector into the fabric-defining scenario Spec.
func (fs FabricSelector) spec() (scenario.Spec, int64) {
	seed := fs.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	return scenario.Spec{
		Topology:     fs.Topology,
		Layers:       fs.Layers,
		Rho:          fs.Rho,
		Construction: fs.Construction,
	}, seed
}

// fabricQueryKeys are the query parameters selecting a fabric on the GET
// endpoints; endpoint-specific keys ride on top.
var fabricQueryKeys = []string{"topo", "class", "param", "param2", "layers", "rho", "construction", "seed"}

// selectorFromQuery parses the fabric-defining query parameters,
// rejecting unknown keys (extra holds the endpoint's own keys).
func selectorFromQuery(q url.Values, extra ...string) (FabricSelector, error) {
	allowed := map[string]bool{}
	for _, k := range fabricQueryKeys {
		allowed[k] = true
	}
	for _, k := range extra {
		allowed[k] = true
	}
	for k := range q {
		if !allowed[k] {
			return FabricSelector{}, fmt.Errorf("unknown query parameter %q", k)
		}
	}
	var fs FabricSelector
	fs.Topology.Kind = q.Get("topo")
	if fs.Topology.Kind == "" {
		return FabricSelector{}, fmt.Errorf("missing required query parameter \"topo\" (topology kind: SF, DF, HX, XP, FT3, JF, Clique, Star)")
	}
	fs.Topology.Class = q.Get("class")
	var err error
	if fs.Topology.Param, err = intQuery(q, "param", 0); err != nil {
		return FabricSelector{}, err
	}
	if fs.Topology.Param2, err = intQuery(q, "param2", 0); err != nil {
		return FabricSelector{}, err
	}
	if fs.Layers, err = intQuery(q, "layers", 0); err != nil {
		return FabricSelector{}, err
	}
	if fs.Rho, err = floatQuery(q, "rho", 0); err != nil {
		return FabricSelector{}, err
	}
	fs.Construction = q.Get("construction")
	seed, err := intQuery(q, "seed", 0) // spec() maps 0 to defaultSeed
	if err != nil {
		return FabricSelector{}, err
	}
	fs.Seed = int64(seed)
	return fs, nil
}

func intQuery(q url.Values, key string, def int) (int, error) {
	v := q.Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("query parameter %q: %q is not an integer", key, v)
	}
	return n, nil
}

func floatQuery(q url.Values, key string, def float64) (float64, error) {
	v := q.Get(key)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("query parameter %q: %q is not a number", key, v)
	}
	return f, nil
}

// fabric resolves a selector to its resident fabric (admitting on miss).
func (s *Server) fabric(fs FabricSelector) (*core.Fabric, error) {
	spec, seed := fs.spec()
	_, fab, err := s.fabrics.Get(spec, seed)
	return fab, err
}

// HopAnswer is one next-hop query answer — identical fields on /nexthop
// and inside /whatif, so clients diff healthy vs failed answers directly.
type HopAnswer struct {
	Layer int `json:"layer"`
	Src   int `json:"src"`
	Dst   int `json:"dst"`
	// Next is the deterministic representative next hop (-1 when dst is
	// unreachable within the layer); Dist is the hop distance (-1 when
	// unreachable, 0 when src == dst).
	Next int32 `json:"next"`
	Dist int32 `json:"dist"`
	// Candidates is the full within-layer ECMP candidate set at src.
	Candidates []int32 `json:"candidates"`
}

// answerHop reads one (layer, src, dst) answer off an engine: a resident
// fabric's, or a /whatif view derived from it.
func answerHop(fwd *routing.Engine, layer, src, dst int) HopAnswer {
	return HopAnswer{
		Layer: layer, Src: src, Dst: dst,
		Next:       fwd.Next(layer, src, dst),
		Dist:       int32(fwd.PathLen(layer, src, dst)),
		Candidates: fwd.AppendCandidates([]int32{}, layer, src, dst),
	}
}

// validateTriple bounds-checks one (layer, src, dst) query.
func validateTriple(fab *core.Fabric, layer, src, dst int) error {
	if layer < 0 || layer >= fab.Fwd.NumLayers() {
		return fmt.Errorf("layer %d outside [0,%d)", layer, fab.Fwd.NumLayers())
	}
	return validatePair(fab, src, dst)
}

func validatePair(fab *core.Fabric, src, dst int) error {
	nr := fab.Topo.Nr()
	if src < 0 || src >= nr {
		return fmt.Errorf("src router %d outside [0,%d)", src, nr)
	}
	if dst < 0 || dst >= nr {
		return fmt.Errorf("dst router %d outside [0,%d)", dst, nr)
	}
	return nil
}

// handleNexthop: GET /nexthop?topo=SF&param=5&layer=0&src=3&dst=17 — one
// lock-free table read.
func (s *Server) handleNexthop(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	fs, err := selectorFromQuery(q, "layer", "src", "dst")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	layer, err1 := intQuery(q, "layer", 0)
	src, err2 := requiredInt(q, "src")
	dst, err3 := requiredInt(q, "dst")
	if err := firstErr(err1, err2, err3); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	fab, err := s.fabric(fs)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := validateTriple(fab, layer, src, dst); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, answerHop(fab.Fwd, layer, src, dst))
}

// LayerPath is one layer's representative route in a /paths answer.
type LayerPath struct {
	Layer int `json:"layer"`
	// Len is the within-layer minimal hop count (-1 when the layer does
	// not connect the pair).
	Len int `json:"len"`
	// Path is the representative router-level route (deterministic
	// tie-breaks), absent when unreachable.
	Path []int32 `json:"path,omitempty"`
	// Candidates is the ECMP width at src within the layer.
	Candidates int `json:"candidates"`
}

// PathsAnswer is the /paths response.
type PathsAnswer struct {
	Src    int         `json:"src"`
	Dst    int         `json:"dst"`
	Layers []LayerPath `json:"layers"`
	// DistinctPaths counts distinct (first hop, length) routes across all
	// layers and ECMP candidates — the deployed path-diversity measure the
	// flowlet balancer actually chooses over.
	DistinctPaths int `json:"distinctPaths"`
}

// handlePaths: GET /paths?topo=SF&param=5&src=3&dst=17[&layer=2] — the
// multipath/diversity view of one router pair.
func (s *Server) handlePaths(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	fs, err := selectorFromQuery(q, "layer", "src", "dst")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	src, err1 := requiredInt(q, "src")
	dst, err2 := requiredInt(q, "dst")
	onlyLayer, err3 := intQuery(q, "layer", -1)
	if err := firstErr(err1, err2, err3); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	fab, err := s.fabric(fs)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := validatePair(fab, src, dst); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// -1 is the absent parameter ("all layers"); a negative value the
	// client actually sent is as out of range as one past the last layer.
	if onlyLayer >= fab.Fwd.NumLayers() || (onlyLayer < 0 && q.Get("layer") != "") {
		httpError(w, http.StatusBadRequest, fmt.Errorf("layer %d outside [0,%d)", onlyLayer, fab.Fwd.NumLayers()))
		return
	}
	ans := PathsAnswer{Src: src, Dst: dst, DistinctPaths: fab.Fwd.DistinctRoutes(src, dst)}
	for l := 0; l < fab.Fwd.NumLayers(); l++ {
		if onlyLayer >= 0 && onlyLayer != l {
			continue
		}
		lp := LayerPath{Layer: l, Len: fab.Fwd.PathLen(l, src, dst)}
		if lp.Len >= 0 {
			lp.Candidates = fab.Fwd.Hops(l, src, dst).Len()
			lp.Path = fab.Fwd.Route(l, src, dst)
		}
		ans.Layers = append(ans.Layers, lp)
	}
	writeJSON(w, http.StatusOK, ans)
}

// WhatifRequest is the POST /whatif body: a fabric, the base edge IDs to
// fail, and the queries to answer against the repaired view.
type WhatifRequest struct {
	Fabric      FabricSelector `json:"fabric"`
	FailedEdges []int          `json:"failedEdges"`
	Queries     []QueryTriple  `json:"queries"`
}

// QueryTriple names one (layer, src, dst) query.
type QueryTriple struct {
	Layer int `json:"layer"`
	Src   int `json:"src"`
	Dst   int `json:"dst"`
}

// WhatifAnswer is the POST /whatif response. SharedTables and
// InvalidatedTables expose the incremental repair: how many of the
// resident fabric's tables the per-request view reused vs discarded.
type WhatifAnswer struct {
	FailedEdges       []int       `json:"failedEdges"`
	SharedTables      int         `json:"sharedTables"`
	InvalidatedTables int         `json:"invalidatedTables"`
	Answers           []HopAnswer `json:"answers"`
}

// handleWhatif derives a copy-on-write WithoutEdges view for this request
// only — the resident fabric is never mutated, so concurrent /nexthop
// readers are unaffected — and answers the queries against it.
func (s *Server) handleWhatif(w http.ResponseWriter, r *http.Request) {
	var req WhatifRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	fab, err := s.fabric(req.Fabric)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	m := fab.Topo.G.M()
	for _, id := range req.FailedEdges {
		if id < 0 || id >= m {
			httpError(w, http.StatusBadRequest, fmt.Errorf("failed edge %d outside [0,%d)", id, m))
			return
		}
	}
	for _, qt := range req.Queries {
		if err := validateTriple(fab, qt.Layer, qt.Src, qt.Dst); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
	}
	derived := fab.Fwd.WithoutEdges(req.FailedEdges)
	if s.met != nil {
		s.met.WhatifViews.Inc()
	}
	shared, invalidated := derived.Repair()
	ans := WhatifAnswer{
		FailedEdges:       append([]int{}, req.FailedEdges...),
		SharedTables:      shared,
		InvalidatedTables: invalidated,
		Answers:           make([]HopAnswer, 0, len(req.Queries)),
	}
	for _, qt := range req.Queries {
		ans.Answers = append(ans.Answers, answerHop(derived, qt.Layer, qt.Src, qt.Dst))
	}
	writeJSON(w, http.StatusOK, ans)
}

// ScenarioRequest is the POST /scenarios body: a scenario matrix (the
// same JSON cmd/scenarios reads from disk) plus the run seed (0 means
// defaultSeed).
type ScenarioRequest struct {
	Matrix scenario.Matrix `json:"matrix"`
	Seed   int64           `json:"seed,omitempty"`
}

// handleScenarios expands the matrix and executes it on the shared worker
// pool with the content-addressed result cache, streaming progress as
// JSONL: the run_start / per-cell / run_end telemetry records, then one
// final {"type":"result"} line carrying the cell results in canonical
// order (or {"type":"error"} — streams commit the 200 status before the
// run starts). Submissions beyond MaxScenarioRuns queue on a semaphore.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	var req ScenarioRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	cells, skipped, err := req.Matrix.Expand()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-r.Context().Done():
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("request canceled while queued behind other scenario runs"))
		return
	}
	if s.met != nil {
		s.met.ScenarioRuns.Inc()
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	fw := &flushWriter{w: w}
	tel := obs.NewTelemetry(fw)
	results, err := scenario.RunSpecs(cells, scenario.RunOptions{
		Run: exec.Run{
			Seed:        seed,
			Parallelism: s.cfg.Parallelism,
			Name:        req.Matrix.Name,
			Obs:         s.reg,
			Telemetry:   tel,
		},
		Cache: s.cfg.Cache,
	})
	if err != nil {
		tel.Emit(map[string]string{"type": "error", "error": err.Error()})
		return
	}
	tel.Emit(struct {
		Type    string                `json:"type"`
		Cells   int                   `json:"cells"`
		Skipped int                   `json:"skipped"`
		Results []scenario.CellResult `json:"results"`
	}{Type: "result", Cells: len(cells), Skipped: skipped, Results: results})
}

// flushWriter flushes after every write so JSONL progress lines reach
// the client as they happen, not when the response buffer fills.
type flushWriter struct{ w http.ResponseWriter }

func (fw *flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if f, ok := fw.w.(http.Flusher); ok {
		f.Flush()
	}
	return n, err
}

// HealthAnswer is the GET /healthz response.
type HealthAnswer struct {
	Status string `json:"status"`
	// Fabrics / MaxFabrics census the resident LRU.
	Fabrics    int `json:"fabrics"`
	MaxFabrics int `json:"maxFabrics"`
	// Fingerprint is the engine fingerprint answers are computed under —
	// clients pin it the way journals do.
	Fingerprint string `json:"fingerprint"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthAnswer{
		Status:      "ok",
		Fabrics:     s.fabrics.Len(),
		MaxFabrics:  s.cfg.MaxFabrics,
		Fingerprint: scenario.EngineFingerprint,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("metrics registry disabled"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.reg.Dump(w)
}

// requiredInt parses a mandatory integer query parameter.
func requiredInt(q url.Values, key string) (int, error) {
	if q.Get(key) == "" {
		return 0, fmt.Errorf("missing required query parameter %q", key)
	}
	return intQuery(q, key, 0)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// maxBodyBytes bounds a POST body: a client cannot make the daemon buffer
// and parse more than this per request. Spec matrices and /whatif edge and
// query lists are KiB-sized.
const maxBodyBytes = 1 << 20

// decodeJSON decodes a request body of at most maxBodyBytes with
// scenario.DecodeStrict, the same rules as cmd/scenarios spec files. On
// failure it writes the error response — 413 for an oversized body, 400
// otherwise — and returns false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if err := scenario.DecodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), v); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Errorf("request body: %w", err))
		return false
	}
	return true
}

// writeJSON writes one JSON object and a trailing newline (answers are
// valid JSONL, so fixtures and CLI pipelines diff cleanly).
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

func httpError(w http.ResponseWriter, code int, err error) {
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{Error: err.Error()})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}
