package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Fatal("Counter not idempotent per name")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.SetMax(3)
	if got := g.Value(); got != 7 {
		t.Fatalf("SetMax(3) lowered gauge to %d", got)
	}
	g.SetMax(11)
	if got := g.Value(); got != 11 {
		t.Fatalf("SetMax(11) gave %d", got)
	}
}

func TestNilReceiversAreNoOps(t *testing.T) {
	// The disabled path hands out nil metrics everywhere; every method must
	// be callable on them.
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(1)
	g.SetMax(2)
	_ = g.Value()
	var h *Histogram
	h.Observe(1)
	h.ObserveN(2, 3)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("nil histogram stats")
	}
	_ = h.Percentile(0.5)
	var m *SimMetrics
	if m != nil {
		t.Fatal("want nil")
	}
	if NewSimMetrics(nil) != nil || NewRoutingMetrics(nil) != nil {
		t.Fatal("bundles over a nil registry must be nil")
	}
	var p *Progress
	p.SetLabel("x")
	p.Update(1, 2)
	p.Clear()
	if p.Hook() != nil {
		t.Fatal("nil progress must hand out a nil hook")
	}
	var tel *Telemetry
	tel.Emit(struct{}{})
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	var tr *Tracer
	if tr.TryAcquire() {
		t.Fatal("nil tracer acquired")
	}
	tr.Instant("c", "n", 0, 0)
	tr.CounterEvent("n", 0, 1)
	tr.SpanBegin("c", "n", "1", 0)
	tr.SpanEnd("c", "n", "1", 0)
	if tr.Len() != 0 {
		t.Fatal("nil tracer length")
	}
}

func TestHistogramStats(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.7, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 556.2; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if got := h.Max(); got != 500 {
		t.Fatalf("max = %v", got)
	}
	// Two of five observations sit below the first bound, so p40 resolves
	// inside bucket (-inf,1] and reports its upper bound.
	if got := h.Percentile(0.4); got != 1 {
		t.Fatalf("p40 = %v, want 1", got)
	}
	// p90 lands in (100, +inf); the histogram reports the observed max.
	if got := h.Percentile(0.99); got != 500 {
		t.Fatalf("p99 = %v, want 500 (observed max)", got)
	}
}

func TestRegistryDumpAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(2)
	r.Counter("a.first").Inc()
	r.Histogram("h", []float64{1, 2}).Observe(1.5)
	var buf bytes.Buffer
	r.Dump(&buf)
	out := buf.String()
	if !strings.Contains(out, "a.first") || !strings.Contains(out, "z.last") {
		t.Fatalf("dump missing metrics:\n%s", out)
	}
	if strings.Index(out, "a.first") > strings.Index(out, "z.last") {
		t.Fatalf("dump not sorted:\n%s", out)
	}
	snap := r.Snapshot()
	if snap["a.first"] != 1 || snap["z.last"] != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
}

// TestMetricCatalogMatchesRegistry: the README "Metric catalog" table and
// the names the four bundles register are the same set, so the catalog
// can neither advertise a metric nothing feeds nor miss one a dump
// prints. obs.MetricSimBarrierStalls and obs.MetricRoutingStripeContend —
// declared for the frozen bench/, registered by nothing — must be in
// neither.
func TestMetricCatalogMatchesRegistry(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(readme), "\n### Metric catalog\n")
	if !found {
		t.Fatal(`README.md has no "### Metric catalog" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	catalog := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if rest, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ := strings.Cut(rest, "`")
			catalog[name] = true
		}
	}

	r := NewRegistry()
	NewSimMetrics(r)
	NewRoutingMetrics(r)
	NewScenarioMetrics(r)
	NewServeMetrics(r)
	registered := map[string]bool{}
	for name := range r.counters {
		registered[name] = true
	}
	for name := range r.gauges {
		registered[name] = true
	}
	for name := range r.hists {
		registered[name] = true
	}

	if len(catalog) == 0 || len(registered) == 0 {
		t.Fatalf("catalog has %d names, registry %d; the test is miswired", len(catalog), len(registered))
	}
	for name := range registered {
		if !catalog[name] {
			t.Errorf("%s is registered but missing from the README metric catalog", name)
		}
	}
	for name := range catalog {
		if !registered[name] {
			t.Errorf("%s is in the README metric catalog but no bundle registers it", name)
		}
	}
	for _, inert := range []string{MetricSimBarrierStalls, MetricRoutingStripeContend} {
		if catalog[inert] || registered[inert] {
			t.Errorf("%s is inert (kept for the frozen bench/ only) and must be neither registered nor catalogued", inert)
		}
	}
}

// TestRegistryConcurrent hammers get-or-create and updates from many
// goroutines; run under -race this guards the registry's locking and the
// lock-free metric updates.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").SetMax(int64(j))
				r.Histogram("h", FCTBucketsMs).Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", FCTBucketsMs).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestTelemetryJSONL(t *testing.T) {
	var buf bytes.Buffer
	tel := NewTelemetry(&buf)
	tel.Emit(RunStart{Type: "run_start", Name: "m", Cells: 2, Workers: 1, Seed: 42, UnixMs: 1})
	tel.Emit(CellRecord{Type: "cell", Name: "m", Index: 0, Key: "topo=SF", WallMs: 1.5})
	tel.Emit(RunEnd{Type: "run_end", Name: "m", Cells: 2, WallMs: 3, WorkerUtil: 0.9, UnixMs: 2})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	var cell map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &cell); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"type", "name", "index", "key", "wallMs"} {
		if _, ok := cell[k]; !ok {
			t.Fatalf("cell record missing %q: %s", k, lines[1])
		}
	}
	if cell["type"] != "cell" || cell["key"] != "topo=SF" {
		t.Fatalf("cell record = %v", cell)
	}
}

func TestTracerWindowAndJSON(t *testing.T) {
	tr := NewTracer(150)
	if !tr.TryAcquire() {
		t.Fatal("first acquire must win")
	}
	if tr.TryAcquire() {
		t.Fatal("second acquire must lose")
	}
	tr.Instant("ev", "inside", 120, 1)
	tr.SpanBegin("ev", "span", "1", 130)
	tr.CounterEvent("depth", 140, 3)
	tr.Instant("ev", "after", 200, 1) // outside window
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3 (window filter)", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out.TraceEvents) != 3 {
		t.Fatalf("traceEvents = %d", len(out.TraceEvents))
	}
	phases := map[string]bool{}
	for _, ev := range out.TraceEvents {
		phases[ev["ph"].(string)] = true
	}
	for _, ph := range []string{"i", "b", "C"} {
		if !phases[ph] {
			t.Fatalf("missing phase %q in %v", ph, phases)
		}
	}
}

func TestTracerBudget(t *testing.T) {
	tr := NewTracer(1000)
	tr.maxEvents = 2
	tr.TryAcquire()
	for i := 0; i < 5; i++ {
		tr.Instant("ev", "x", int64(i), 0)
	}
	if tr.Len() != 2 {
		t.Fatalf("len = %d, want budget cap 2", tr.Len())
	}
}

func TestProgress(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf)
	p.SetLabel("fig2")
	hook := p.Hook()
	if hook == nil {
		t.Fatal("nil hook from live progress")
	}
	hook(1, 4)
	if !strings.Contains(buf.String(), "fig2") || !strings.Contains(buf.String(), "1/4") {
		t.Fatalf("progress line = %q", buf.String())
	}
	p.Clear()
	if !strings.HasSuffix(buf.String(), "\r") {
		t.Fatalf("clear must end on a bare carriage return: %q", buf.String())
	}
	if NewProgress(nil) != nil {
		t.Fatal("progress over a nil writer must be nil")
	}
}

// TestBindFlags: the shared CLI flag block. With nothing set every
// collaborator but the progress line is nil and stop does nothing but
// report the status; with everything set the trace, telemetry and profile
// files are written and the telemetry file is closed by stop, once.
func TestBindFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	start, stop := BindFlags(fs, "t")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	s, err := start()
	if err != nil {
		t.Fatal(err)
	}
	if s.Obs != nil || s.Telemetry != nil || s.Tracer != nil {
		t.Fatalf("no flag set, but collaborators are live: %+v", s)
	}
	if s.Progress == nil {
		t.Fatal("progress must default on (only -quiet silences it)")
	}
	if code := stop(nil); code != 0 {
		t.Fatalf("stop with nothing started: status %d", code)
	}

	dir := t.TempDir()
	paths := map[string]string{}
	for _, name := range []string{"telemetry", "trace", "cpuprofile", "memprofile"} {
		paths[name] = filepath.Join(dir, name)
	}
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	start, stop = BindFlags(fs, "t")
	if err := fs.Parse([]string{
		"-quiet", "-metrics", "-trace-ms", "5",
		"-telemetry", paths["telemetry"], "-trace", paths["trace"],
		"-cpuprofile", paths["cpuprofile"], "-memprofile", paths["memprofile"],
	}); err != nil {
		t.Fatal(err)
	}
	s, err = start()
	if err != nil {
		t.Fatal(err)
	}
	if s.Obs == nil || s.Telemetry == nil || s.Tracer == nil || s.Progress != nil {
		t.Fatalf("every flag set (incl. -quiet), got %+v", s)
	}
	s.Telemetry.Emit(RunEnd{Type: "run_end"})
	if code := stop(errors.New("the run failed")); code != 1 {
		t.Fatalf("stop after a failed run: status %d, want 1", code)
	}
	for name, p := range paths {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("-%s %s: not written (%v)", name, p, err)
		}
	}
	if err := s.Telemetry.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("telemetry Close after stop = %v, want os.ErrClosed (stop owns the close)", err)
	}
}
