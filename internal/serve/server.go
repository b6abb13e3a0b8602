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
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
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
}

// maxScenarioRuns caps concurrently executing /scenarios submissions;
// excess submissions queue. One run already spreads its cells over the
// whole worker pool, so a second one at once would only share its cores.
// Path queries are never queued — they only read resident tables.
const maxScenarioRuns = 1

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
		sem:     make(chan struct{}, maxScenarioRuns),
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
	// Seed is the run seed; 0 means scenario.DefaultSeed.
	Seed int64 `json:"seed,omitempty"`
}

// spec converts the selector into the fabric-defining scenario Spec.
func (fs FabricSelector) spec() (scenario.Spec, int64) {
	seed := fs.Seed
	if seed == 0 {
		seed = scenario.DefaultSeed
	}
	return scenario.Spec{
		Topology:     fs.Topology,
		Layers:       fs.Layers,
		Rho:          fs.Rho,
		Construction: fs.Construction,
	}, seed
}

// The query keys the GET endpoints accept: the fabric selector's, then
// the (layer, src, dst) the question names. Each has one getQuery slot.
const (
	qTopo = iota
	qClass
	qParam
	qParam2
	qLayers
	qRho
	qConstruction
	qSeed
	qLayer
	qSrc
	qDst
	numQueryKeys
)

var queryKeys = [numQueryKeys]string{"topo", "class", "param", "param2", "layers", "rho", "construction", "seed", "layer", "src", "dst"}

// getQuery is a parsed GET query: the first value of each accepted key,
// "" when the key is absent.
type getQuery [numQueryKeys]string

// parseGetQuery reads a raw query string in one pass, with the semantics
// of url.ParseQuery followed by Values.Get: pairs split on '&'; a pair
// holding ';' or a malformed escape is dropped; key and value are
// unescaped only when the pair holds '%' or '+'; the first value of a key
// wins. It rejects the first unknown key in query order.
func parseGetQuery(raw string) (getQuery, error) {
	var q getQuery
	var seen uint16 // bit k: key k already has its value
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		semicolon, escaped := scanPair(pair)
		if pair == "" || semicolon {
			continue
		}
		key, val, _ := strings.Cut(pair, "=")
		if escaped {
			var errKey, errVal error
			key, errKey = url.QueryUnescape(key)
			val, errVal = url.QueryUnescape(val)
			if errKey != nil || errVal != nil {
				continue
			}
		}
		k := slices.Index(queryKeys[:], key)
		if k < 0 {
			return getQuery{}, fmt.Errorf("unknown query parameter %q", key)
		}
		if seen&(1<<k) == 0 {
			q[k], seen = val, seen|1<<k
		}
	}
	return q, nil
}

// scanPair reports whether a query pair holds a ';' and whether it holds
// a '%' or '+', in one pass.
func scanPair(pair string) (semicolon, escaped bool) {
	for i := 0; i < len(pair); i++ {
		switch pair[i] {
		case ';':
			semicolon = true
		case '%', '+':
			escaped = true
		}
	}
	return semicolon, escaped
}

// selector parses the fabric-defining query parameters.
func (q *getQuery) selector() (FabricSelector, error) {
	var fs FabricSelector
	fs.Topology.Kind = q[qTopo]
	if fs.Topology.Kind == "" {
		return FabricSelector{}, fmt.Errorf("missing required query parameter \"topo\" (topology kind: SF, DF, HX, XP, FT3, JF, Clique, Star)")
	}
	fs.Topology.Class = q[qClass]
	var err error
	if fs.Topology.Param, err = q.intParam(qParam, 0); err != nil {
		return FabricSelector{}, err
	}
	if fs.Topology.Param2, err = q.intParam(qParam2, 0); err != nil {
		return FabricSelector{}, err
	}
	if fs.Layers, err = q.intParam(qLayers, 0); err != nil {
		return FabricSelector{}, err
	}
	if fs.Rho, err = q.floatParam(qRho, 0); err != nil {
		return FabricSelector{}, err
	}
	fs.Construction = q[qConstruction]
	seed, err := q.intParam(qSeed, 0) // spec() maps 0 to scenario.DefaultSeed
	if err != nil {
		return FabricSelector{}, err
	}
	fs.Seed = int64(seed)
	return fs, nil
}

// intParam parses key k as an integer, def when absent.
func (q *getQuery) intParam(k, def int) (int, error) {
	v := q[k]
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("query parameter %q: %q is not an integer", queryKeys[k], v)
	}
	return n, nil
}

// requiredInt parses the mandatory integer key k.
func (q *getQuery) requiredInt(k int) (int, error) {
	if q[k] == "" {
		return 0, fmt.Errorf("missing required query parameter %q", queryKeys[k])
	}
	return q.intParam(k, 0)
}

func (q *getQuery) floatParam(k int, def float64) (float64, error) {
	v := q[k]
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("query parameter %q: %q is not a number", queryKeys[k], v)
	}
	return f, nil
}

// parseFabricQuery parses a GET request's query and the fabric selector
// it carries.
func parseFabricQuery(r *http.Request) (getQuery, FabricSelector, error) {
	q, err := parseGetQuery(r.URL.RawQuery)
	if err != nil {
		return q, FabricSelector{}, err
	}
	fs, err := q.selector()
	return q, fs, err
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
// fabric's, or a /whatif view derived from it. The candidates are
// appended to buf, which is returned; the answer's list is its own part of
// buf, capped so that later appends never write into it, and non-nil when
// empty, so that it encodes as [].
func answerHop(fwd *routing.Engine, buf []int32, layer, src, dst int) (HopAnswer, []int32) {
	start := len(buf)
	buf = fwd.AppendCandidates(buf, layer, src, dst)
	cands := buf[start:len(buf):len(buf)]
	if cands == nil {
		cands = []int32{}
	}
	return HopAnswer{
		Layer: layer, Src: src, Dst: dst,
		Next:       fwd.Next(layer, src, dst),
		Dist:       int32(fwd.PathLen(layer, src, dst)),
		Candidates: cands,
	}, buf
}

// appendJSON appends the encoding/json form of a to b.
func (a *HopAnswer) appendJSON(b []byte) []byte {
	b = append(b, `{"layer":`...)
	b = strconv.AppendInt(b, int64(a.Layer), 10)
	b = append(b, `,"src":`...)
	b = strconv.AppendInt(b, int64(a.Src), 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, int64(a.Dst), 10)
	b = append(b, `,"next":`...)
	b = strconv.AppendInt(b, int64(a.Next), 10)
	b = append(b, `,"dist":`...)
	b = strconv.AppendInt(b, int64(a.Dist), 10)
	b = append(b, `,"candidates":`...)
	b = appendList(b, a.Candidates, appendInt)
	return append(b, '}')
}

// appendList appends the encoding/json form of xs, each element by elem:
// null when xs is nil.
func appendList[T any](b []byte, xs []T, elem func(*T, []byte) []byte) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(&xs[i], b)
	}
	return append(b, ']')
}

func appendInt[T int | int32](x *T, b []byte) []byte {
	return strconv.AppendInt(b, int64(*x), 10)
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
	q, fs, err := parseFabricQuery(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	layer, err1 := q.intParam(qLayer, 0)
	src, err2 := q.requiredInt(qSrc)
	dst, err3 := q.requiredInt(qDst)
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
	var buf [32]int32 // a router's candidates, unless it has more neighbours
	ans, _ := answerHop(fab.Fwd, buf[:0], layer, src, dst)
	writeAnswer(w, ans.appendJSON(make([]byte, 0, 128)))
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

// appendJSON appends the encoding/json form of lp to b.
func (lp *LayerPath) appendJSON(b []byte) []byte {
	b = append(b, `{"layer":`...)
	b = strconv.AppendInt(b, int64(lp.Layer), 10)
	b = append(b, `,"len":`...)
	b = strconv.AppendInt(b, int64(lp.Len), 10)
	if len(lp.Path) > 0 {
		b = append(b, `,"path":`...)
		b = appendList(b, lp.Path, appendInt)
	}
	b = append(b, `,"candidates":`...)
	b = strconv.AppendInt(b, int64(lp.Candidates), 10)
	return append(b, '}')
}

// appendJSON appends the encoding/json form of a to b.
func (a *PathsAnswer) appendJSON(b []byte) []byte {
	b = append(b, `{"src":`...)
	b = strconv.AppendInt(b, int64(a.Src), 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, int64(a.Dst), 10)
	b = append(b, `,"layers":`...)
	b = appendList(b, a.Layers, (*LayerPath).appendJSON)
	b = append(b, `,"distinctPaths":`...)
	b = strconv.AppendInt(b, int64(a.DistinctPaths), 10)
	return append(b, '}')
}

// handlePaths: GET /paths?topo=SF&param=5&src=3&dst=17[&layer=2] — the
// multipath/diversity view of one router pair.
func (s *Server) handlePaths(w http.ResponseWriter, r *http.Request) {
	q, fs, err := parseFabricQuery(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	src, err1 := q.requiredInt(qSrc)
	dst, err2 := q.requiredInt(qDst)
	onlyLayer, err3 := q.intParam(qLayer, -1)
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
	if onlyLayer >= fab.Fwd.NumLayers() || (onlyLayer < 0 && q[qLayer] != "") {
		httpError(w, http.StatusBadRequest, fmt.Errorf("layer %d outside [0,%d)", onlyLayer, fab.Fwd.NumLayers()))
		return
	}
	n := fab.Fwd.NumLayers()
	if onlyLayer >= 0 {
		n = 1
	}
	ans := PathsAnswer{Src: src, Dst: dst, Layers: make([]LayerPath, 0, n), DistinctPaths: fab.Fwd.DistinctRoutes(src, dst)}
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
	writeAnswer(w, ans.appendJSON(make([]byte, 0, 64+96*n)))
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

// appendJSON appends the encoding/json form of a to b.
func (a *WhatifAnswer) appendJSON(b []byte) []byte {
	b = append(b, `{"failedEdges":`...)
	b = appendList(b, a.FailedEdges, appendInt)
	b = append(b, `,"sharedTables":`...)
	b = strconv.AppendInt(b, int64(a.SharedTables), 10)
	b = append(b, `,"invalidatedTables":`...)
	b = strconv.AppendInt(b, int64(a.InvalidatedTables), 10)
	b = append(b, `,"answers":`...)
	b = appendList(b, a.Answers, (*HopAnswer).appendJSON)
	return append(b, '}')
}

// handleWhatif derives a copy-on-write WithoutEdges view for this request
// only — the resident fabric is never mutated, so concurrent /nexthop
// readers are unaffected — and answers the queries against it.
func (s *Server) handleWhatif(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeWhatif(w, r)
	if !ok {
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
	failed := req.FailedEdges
	if failed == nil {
		failed = []int{} // answered as [], not null
	}
	ans := WhatifAnswer{
		FailedEdges:       failed,
		SharedTables:      shared,
		InvalidatedTables: invalidated,
		Answers:           make([]HopAnswer, 0, len(req.Queries)),
	}
	// The answers' candidate lists share one buffer: a few per query, grown
	// only for queries that have more.
	cands := make([]int32, 0, 8*len(req.Queries))
	for _, qt := range req.Queries {
		var a HopAnswer
		a, cands = answerHop(derived, cands, qt.Layer, qt.Src, qt.Dst)
		ans.Answers = append(ans.Answers, a)
	}
	writeAnswer(w, ans.appendJSON(make([]byte, 0, 128*(1+len(ans.Answers)))))
}

// ScenarioRequest is the POST /scenarios body: a scenario matrix (the
// same JSON cmd/scenarios reads from disk) plus the run seed (0 means
// scenario.DefaultSeed).
type ScenarioRequest struct {
	Matrix scenario.Matrix `json:"matrix"`
	Seed   int64           `json:"seed,omitempty"`
}

// handleScenarios expands the matrix and executes it on the shared worker
// pool with the content-addressed result cache, streaming progress as
// JSONL: the run_start / per-cell / run_end telemetry records, then one
// final {"type":"result"} line carrying the cell results in canonical
// order (or {"type":"error"} — streams commit the 200 status before the
// run starts). Submissions beyond maxScenarioRuns queue on a semaphore.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	var req ScenarioRequest
	if !decodeJSON(w, http.MaxBytesReader(w, r.Body, maxBodyBytes), &req) {
		return
	}
	cells, skipped, err := req.Matrix.Expand()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = scenario.DefaultSeed
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
	writeJSON(w, HealthAnswer{
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

// decodeJSON decodes a request body, read through a reader that stops at
// maxBodyBytes, with scenario.DecodeStrict, the same rules as
// cmd/scenarios spec files. On failure it writes the error response — 413
// for an oversized body, 400 otherwise — and returns false.
func decodeJSON(w http.ResponseWriter, body io.Reader, v interface{}) bool {
	if err := scenario.DecodeStrict(body, v); err != nil {
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

// decodeWhatif reads a /whatif body of at most maxBodyBytes: by hand
// (readWhatif) when it is in the form json.Marshal writes, else with
// decodeJSON over the bytes read followed by the read's error — the stream
// decodeJSON would have read off the request — so every other body gets
// the answer it always got. On failure it writes the error response and
// returns false.
func decodeWhatif(w http.ResponseWriter, r *http.Request) (WhatifRequest, bool) {
	buf := bodyBufs.Get().(*[]byte)
	defer putBodyBuf(buf)
	body, err := readBody(w, r, (*buf)[:0])
	*buf = body[:0]
	if err == nil {
		if req, ok := readWhatif(body); ok {
			return req, true
		}
	}
	var src io.Reader = bytes.NewReader(body)
	if err != nil {
		src = io.MultiReader(src, errReader{err})
	}
	var req WhatifRequest
	return req, decodeJSON(w, src, &req)
}

// bodyBufs recycles the buffers /whatif bodies are read into; one that
// grew past 64 KiB is left to the collector.
var bodyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

func putBodyBuf(b *[]byte) {
	if cap(*b) <= 64<<10 {
		bodyBufs.Put(b)
	}
}

// readBody appends the request body, at most maxBodyBytes of it, to b.
// The error is the read's, io.EOF excepted: *http.MaxBytesError when the
// body is longer. (A loop rather than bytes.Buffer.ReadFrom, which takes
// the limiting reader as an interface and so moves it to the heap.)
func readBody(w http.ResponseWriter, r *http.Request, b []byte) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// writeJSON writes one JSON object and a trailing newline (answers are
// valid JSONL, so fixtures and CLI pipelines diff cleanly).
func writeJSON(w http.ResponseWriter, v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeAnswer(w, b)
}

// jsonContentType is every JSON answer's Content-Type header value, shared
// so that setting it allocates nothing (Header.Set allocates a slice).
var jsonContentType = []string{"application/json"}

// writeAnswer writes a 200 answer already encoded (by json.Marshal or an
// answer's appendJSON) and a trailing newline.
func writeAnswer(w http.ResponseWriter, b []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(append(b, '\n'))
}

func httpError(w http.ResponseWriter, code int, err error) {
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{Error: err.Error()})
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}
