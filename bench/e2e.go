package main

// The end-to-end driver. Sweeps and experiments are measured by running
// the built CLIs as child processes (flags and spec JSON are the surface
// the planned refactors keep); the daemon is driven in-process through
// serve.New(...).Handler() with a minimal ResponseWriter, because at
// ~10 µs a query a loopback socket's ~35 µs would drown the program.
// Nothing here is measured with tracing on.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// env is one benchmark run's context.
type env struct {
	root    string // repository checkout
	work    string // scratch directory of this run, under .bench_build
	seed    int64
	seconds float64
	traced  bool
	nproc   int
	trace   *spanLog
}

func (e *env) bin(name string) string { return filepath.Join(e.root, ".bench_build", "bin", name) }

// budget is the untraced measuring time: all of -seconds, or half when a
// traced pass follows in the same run.
func (e *env) budget() time.Duration {
	s := e.seconds
	if e.traced {
		s /= 2
	}
	return time.Duration(s * float64(time.Second))
}

// spent reports whether another pass as long as the last one would overrun
// the budget of a measurement begun at start.
func (e *env) spent(start time.Time, last time.Duration) bool {
	return time.Since(start)+last > e.budget()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind a median or percentile
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int
	vals              map[string]metric
	notes             []string
	// untracedWall is the wall_s of the untraced measurement, kept so the
	// traced pass can state its overhead against it.
	untracedWall float64
}

func newOutcome() *outcome { return &outcome{vals: map[string]metric{}} }

func (o *outcome) set(name string, v float64, n int) {
	unit, ok := unitOf(name)
	if !ok {
		panic("bench: metric " + name + " is not in the catalog")
	}
	o.vals[name] = metric{Value: v, Unit: unit, N: n}
}

func (o *outcome) fail(format string, a ...any) {
	o.failed++
	if len(o.notes) < 20 {
		o.notes = append(o.notes, "FAIL: "+fmt.Sprintf(format, a...))
	}
}

func (o *outcome) note(format string, a ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, a...))
}

// Set-up is repeated and setup_s is the median, so a cold build cache on
// the first repetition does not show. Cheap set-ups repeat more often,
// until they have run for setupFill in all, to steady their median.
const (
	setupMinReps = 3
	setupMaxReps = 15
	setupFill    = time.Second
)

// medianSetup reports the median duration of fn in seconds into setup_s.
// State built by the last repetition is the one measured. drop, if not nil,
// lets go of the previous repetition's in-process fixture: two of them
// alive at once would set the daemon workloads' peak RSS and the heap goal
// the measurement starts from, in place of the daemon at work.
func medianSetup(o *outcome, drop func(), fn func() error) error {
	var ts []float64
	for start := time.Now(); len(ts) < setupMinReps || (len(ts) < setupMaxReps && time.Since(start) < setupFill); {
		if drop != nil {
			drop()
		}
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	o.set("setup_s", median(ts), len(ts))
	return nil
}

// ---------------------------------------------------------------- CLIs

// buildCLIs compiles the two measured programs from the checkout's source.
func buildCLIs(e *env) error {
	cmd := exec.Command("go", "build", "-o", filepath.Join(e.root, ".bench_build", "bin")+string(os.PathSeparator),
		"./cmd/experiments", "./cmd/scenarios")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

// childRun is one finished child process.
type childRun struct {
	start          time.Time
	wall, cpu      float64 // seconds
	rssMB          float64
	stdout, stderr []byte
}

func runChild(bin string, args ...string) (childRun, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	c := childRun{start: t0, wall: time.Since(t0).Seconds(), stdout: out.Bytes(), stderr: errb.Bytes()}
	if ps := cmd.ProcessState; ps != nil {
		c.cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		err = fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, lastLine(errb.Bytes()))
	}
	return c, err
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// step is one kind of child invocation inside a pass.
type step struct {
	name   string
	bin    string
	args   []string
	repeat int          // invocations per pass (0 = 1)
	before func() error // untimed preparation, once per pass
	check  func(childRun) error
}

type stepSamples struct{ wall, cpu, rss []float64 }

func (s *stepSamples) add(c childRun) {
	s.wall = append(s.wall, c.wall)
	s.cpu = append(s.cpu, c.cpu)
	s.rss = append(s.rss, c.rssMB)
}

// runPass runs every invocation of one pass and hands each outcome, after
// the step's own check, to visit.
func runPass(steps []step, visit func(st step, c childRun, err error)) {
	for _, st := range steps {
		if st.before != nil {
			if err := st.before(); err != nil {
				visit(st, childRun{}, err)
				continue
			}
		}
		for r := 0; r < max(st.repeat, 1); r++ {
			c, err := runChild(st.bin, st.args...)
			if err == nil && st.check != nil {
				err = st.check(c)
			}
			visit(st, c, err)
		}
	}
}

// runPasses repeats the step list until the budget is spent (at least
// once; a further pass starts only if it should fit) and collects
// per-step samples. With warm set, one untimed pass runs first so the
// binaries are paged in and both cores awake before the clock starts.
func runPasses(e *env, o *outcome, steps []step, warm bool) (map[string]*stepSamples, int) {
	if warm {
		runPass(steps, func(st step, _ childRun, err error) {
			if err != nil {
				o.note("warm-up %s: %v", st.name, err)
			}
		})
	}
	rec := map[string]*stepSamples{}
	for _, st := range steps {
		rec[st.name] = &stepSamples{}
	}
	for start, passes := time.Now(), 1; ; passes++ {
		t0 := time.Now()
		runPass(steps, func(st step, c childRun, err error) {
			o.attempted++
			if err != nil {
				o.fail("%s: %v", st.name, err)
				return
			}
			rec[st.name].add(c)
		})
		if e.spent(start, time.Since(t0)) {
			return rec, passes
		}
	}
}

// cliMetrics folds per-step samples into the shared end-to-end numbers. A
// pass's wall time is the sum over its invocations of each invocation's
// median across passes, which is steadier than the median of pass sums
// when a pass is long and few fit in a run.
func cliMetrics(o *outcome, e *env, steps []step, rec map[string]*stepSamples, passes int) {
	var wall, cpu, rss float64
	rssN := 0 // samples behind the leading step's figure
	for _, st := range steps {
		s := rec[st.name]
		k := float64(max(st.repeat, 1))
		wall += k * median(s.wall)
		cpu += k * median(s.cpu)
		if m := typicalRSS(s.rss); m > rss {
			rss, rssN = m, len(s.rss)
		}
	}
	o.untracedWall = wall
	o.set("wall_s", wall, passes)
	o.set("peak_rss_mb", rss, rssN)
	o.set("exec.cpu_s", cpu, passes)
	if wall > 0 {
		o.set("exec.core_util", cpu/(wall*float64(e.nproc)), passes)
	}
}

// expIDs are the 22 registered experiment IDs outside slowGolden
// (fig14/16/17 take 8–50 s each in quick mode).
var expIDs = []string{
	"abl-construction", "abl-randomization", "abl-transport", "ext-failures",
	"ext-mptcp", "ext-tables", "fig10", "fig11", "fig12", "fig13", "fig15",
	"fig19", "fig2", "fig20", "fig21", "fig4", "fig6", "fig7", "fig8", "fig9",
	"tab4", "tab5",
}

// goldenSeed is the seed internal/experiments/testdata was recorded at.
const goldenSeed = 42

// checkTable compares one experiment's stdout byte for byte with the
// golden table of the commit being measured.
func checkTable(root, id string, stdout []byte) error {
	golden, err := os.ReadFile(filepath.Join(root, "internal", "experiments", "testdata", id+".golden"))
	if err != nil {
		return err
	}
	_, table, _ := bytes.Cut(stdout, []byte("\n")) // drop the "# id — title (1.2s)" line
	if !bytes.Equal(table, append(golden, '\n')) {
		return fmt.Errorf("%s: table differs from testdata/%s.golden", id, id)
	}
	return nil
}

// expSteps runs every ID at the goldens' seed, which is what a user typing
// `-run fig9` gets, so every table is compared byte for byte; the bench
// seed draws the order the IDs run in. The CLI seed is not varied because
// the IDs' cost moves ±10% with it, which the driver would read as noise,
// and because not every seed succeeds: fig9's LP exceeds its iteration
// limit at -seed 51.
func expSteps(e *env, extra ...string) []step {
	ids := append([]string(nil), expIDs...)
	rand.New(rand.NewSource(e.seed)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	var steps []step
	for _, id := range ids {
		args := append([]string{"-run", id, "-quiet", "-seed", strconv.Itoa(goldenSeed), "-parallel", strconv.Itoa(e.nproc)}, extra...)
		steps = append(steps, step{
			name: id, bin: e.bin("experiments"), args: args,
			check: func(c childRun) error { return checkTable(e.root, id, c.stdout) },
		})
	}
	return steps
}

// rssSamples is how many memory samples the step that sets peak_rss_mb must
// have behind it.
const rssSamples = 9

// typicalRSS is the figure kept from one step's ru_maxrss samples: their
// lower quartile. What the samples of one Go program differ by is how late
// its GC cycles finished, which only adds: fig9 at -parallel 2 reads 20–36
// MB from process to process, and the median of 13 such samples still
// moved 6–13 % between runs of the same code, their lower quartile 2–3 %.
// A change that needs more memory lifts the floor, and the quartile with it.
func typicalRSS(samples []float64) float64 { return percentile(samples, 25) }

// resampleRSSLeader steadies peak_rss_mb where a pass is so long that each
// step has one sample: the step with the largest typicalRSS runs again
// until it still leads with rssSamples samples. On exp-suite that is fig9
// or ext-mptcp (~23.5 MB), 10–25 s a run; as the largest single sample,
// peak_rss_mb spread by 20–28 % between runs of the same code.
func resampleRSSLeader(o *outcome, steps []step, rec map[string]*stepSamples) {
	for {
		var lead step
		for _, st := range steps {
			if s := rec[st.name]; len(s.rss) > 0 && (lead.name == "" || typicalRSS(s.rss) > typicalRSS(rec[lead.name].rss)) {
				lead = st
			}
		}
		if lead.name == "" || len(rec[lead.name].rss) >= rssSamples {
			return
		}
		c, err := runChild(lead.bin, lead.args...)
		if err == nil && lead.check != nil {
			err = lead.check(c)
		}
		o.attempted++
		if err != nil {
			o.fail("%s: %v", lead.name, err)
			return
		}
		rec[lead.name].add(c)
	}
}

func runExpSuite(e *env) (*outcome, error) {
	o := newOutcome()
	if err := medianSetup(o, nil, func() error { return buildCLIs(e) }); err != nil {
		return nil, err
	}
	steps := expSteps(e)
	// One pass is ~11 s, so no warm-up pass: a cheap ID pages the binary in.
	if _, err := runChild(e.bin("experiments"), "-run", "tab4", "-quiet"); err != nil {
		return nil, err
	}
	rec, passes := runPasses(e, o, steps, false)
	if !e.traced { // peak_rss_mb is read from untraced runs only
		resampleRSSLeader(o, steps, rec)
	}
	cliMetrics(o, e, steps, rec, passes)
	for _, id := range []string{"fig9", "fig12", "fig11", "fig2", "ext-mptcp"} {
		o.set("experiments."+id+"_s", median(rec[id].wall), len(rec[id].wall))
	}
	if e.traced {
		return o, traceExpSuite(e, o)
	}
	return o, nil
}

// Matrices are written as plain JSON: the spec-file format is the
// interface, not the Go types behind it.
type obj = map[string]any

func sf(q int) obj { return obj{"kind": "SF", "param": q} }

func writeSpec(e *env, name string, m obj) (string, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(e.work, name+".json")
	return path, os.WriteFile(path, b, 0o644)
}

// tcpMatrix is fig14's profile shrunk to ~1.5 s a pass on two cores: SF
// q=5 and DF p=3 keep 256 KiB flows and the deep TCP queues.
func tcpMatrix() obj {
	return obj{
		"name": "sweep-tcp",
		"base": obj{
			"topology": sf(5), "pattern": obj{"kind": "permutation", "randomize": true},
			"flowSize": obj{"bytes": 256 << 10}, "load": 300, "horizonMs": 4000,
		},
		"axes": obj{
			"topologies": []obj{sf(5), {"kind": "DF", "param": 3}},
			"routings":   []string{"fatpaths", "ecmp", "letflow"},
			"transports": []string{"dctcp", "tcp"},
		},
	}
}

// ndpMatrix: SF q=7, ~2 s a pass. The work must not depend on the seed
// (the driver counts seed-to-seed differences as noise), which shaped two
// choices. Sizes are fixed at 32 KiB and 256 KiB: pfabric's heavy tail
// moved the event count ±12% with the seed at the ~1200 draws a 2 s pass
// affords. And each cell runs 4 replicas to a 250 ms horizon rather than 1
// to 1000 ms: every failFrac=0.05 cell of a run shares one failed-link set
// per replica, and the flows it cuts off retry until the horizon, so one
// set alone moved the count ±20%.
func ndpMatrix() obj {
	return obj{
		"name": "sweep-ndp",
		"base": obj{
			"topology": sf(7), "transport": "ndp", "pattern": obj{"kind": "permutation", "randomize": true},
			"load": 300, "horizonMs": 250, "replicas": 4,
		},
		"axes": obj{
			"patterns":  []obj{{"kind": "permutation", "randomize": true}, {"kind": "adversarial"}},
			"routings":  []string{"fatpaths", "minimal", "spray"},
			"flowSizes": []obj{{"bytes": 32 << 10}, {"bytes": 256 << 10}},
			"failFracs": []float64{0, 0.05},
		},
	}
}

// durableMatrix: 480 tiny cells (4 patterns × 5 routings × 3 transports ×
// 2 layer counts × 2 rhos × 2 failFracs on SF q=3). The horizon is 100 ms
// so that flows cut off by the one failed-link set retry briefly: at
// 1000 ms the cold event count moved ±9% with the seed.
func durableMatrix() obj {
	return obj{
		"name": "sweep-durable",
		"base": obj{
			"topology": sf(3), "pattern": obj{"kind": "uniform"},
			"flowSize": obj{"bytes": 32 << 10}, "horizonMs": 100,
		},
		"axes": obj{
			"patterns":   []obj{{"kind": "uniform"}, {"kind": "permutation"}, {"kind": "shuffle"}, {"kind": "adversarial"}},
			"routings":   []string{"fatpaths", "ecmp", "letflow", "minimal", "spray"},
			"transports": []string{"ndp", "tcp", "dctcp"},
			"layers":     []int{2, 4},
			"rhos":       []float64{0.5, 0.9},
			"failFracs":  []float64{0, 0.05},
		},
	}
}

// sweepFile is the part of cmd/scenarios -json the checks read.
type sweepFile struct {
	Cells   int `json:"cells"`
	Results []struct {
		Spec struct {
			FailFrac float64 `json:"failFrac"`
		} `json:"spec"`
		Completed float64 `json:"completed"`
	} `json:"results"`
}

var secondsField = regexp.MustCompile(`"seconds": [0-9.eE+-]+`)

// stripSeconds blanks the one wall-clock field of -json output, leaving a
// byte-comparable table.
func stripSeconds(b []byte) []byte { return secondsField.ReplaceAll(b, []byte(`"seconds": 0`)) }

func parseSweep(stdout []byte, cells int) (sweepFile, error) {
	var files []sweepFile
	if err := json.Unmarshal(stdout, &files); err != nil {
		return sweepFile{}, fmt.Errorf("-json output: %w", err)
	}
	if len(files) != 1 || files[0].Cells != cells || len(files[0].Results) != cells {
		return sweepFile{}, fmt.Errorf("-json output does not hold one file of %d cells", cells)
	}
	return files[0], nil
}

// sameAsFirst returns a check that every run's table equals the first
// run's (the determinism contract), after inner has accepted it.
func sameAsFirst(inner func(childRun) error) func(childRun) error {
	var first []byte
	return func(c childRun) error {
		if err := inner(c); err != nil {
			return err
		}
		got := stripSeconds(c.stdout)
		if first == nil {
			first = got
		} else if !bytes.Equal(first, got) {
			return fmt.Errorf("table differs from the first run's at the same seed")
		}
		return nil
	}
}

// completedCheck wants mean `completed` >= 0.95 over the failFrac=0 cells.
func completedCheck(cells int) func(childRun) error {
	return func(c childRun) error {
		f, err := parseSweep(c.stdout, cells)
		if err != nil {
			return err
		}
		var s float64
		n := 0
		for _, r := range f.Results {
			if r.Spec.FailFrac == 0 {
				s += r.Completed
				n++
			}
		}
		if n == 0 || s/float64(n) < 0.95 {
			return fmt.Errorf("mean completed %.3f over %d healthy cells, want >= 0.95", s/float64(max(n, 1)), n)
		}
		return nil
	}
}

func (e *env) scenarioArgs(spec string, extra ...string) []string {
	return append([]string{"-quiet", "-json", "-seed", strconv.FormatInt(e.seed, 10),
		"-parallel", strconv.Itoa(e.nproc), "-spec", spec}, extra...)
}

// setupSweep is the set-up of a matrix workload: build the CLIs, write the
// spec file.
func setupSweep(e *env, o *outcome, name string, matrix obj) (spec string, err error) {
	err = medianSetup(o, nil, func() (err error) {
		if err = buildCLIs(e); err == nil {
			spec, err = writeSpec(e, name, matrix)
		}
		return err
	})
	return spec, err
}

// runSweep measures a -no-cache matrix: one child per pass.
func runSweep(e *env, name string, matrix obj, cells int) (*outcome, error) {
	o := newOutcome()
	spec, err := setupSweep(e, o, name, matrix)
	if err != nil {
		return nil, err
	}
	steps := []step{{
		name: name, bin: e.bin("scenarios"), args: e.scenarioArgs(spec, "-no-cache"),
		check: sameAsFirst(completedCheck(cells)),
	}}
	rec, passes := runPasses(e, o, steps, true)
	cliMetrics(o, e, steps, rec, passes)
	if e.traced {
		err = traceSweep(e, o, name, matrix, spec)
	}
	return o, err
}

func runSweepTCP(e *env) (*outcome, error) { return runSweep(e, "sweep-tcp", tcpMatrix(), 12) }
func runSweepNDP(e *env) (*outcome, error) { return runSweep(e, "sweep-ndp", ndpMatrix(), 24) }

// durableRepeat is how many warm re-runs and how many resumes follow each
// cold run; it weights the pass so the three phases each carry a
// noticeable share of wall_s.
const durableRepeat = 10

const durableCells = 480

// durableSteps is one pass of sweep-durable: cold into a fresh cache and
// journal, then warm re-runs against the cache, then resumes of the
// complete journal. Warm and resume tables must equal the cold table.
func durableSteps(e *env, spec string, extra ...string) []step {
	cache, journal := filepath.Join(e.work, "cache"), filepath.Join(e.work, "run.journal")
	var cold []byte
	same := func(c childRun) error {
		if _, err := parseSweep(c.stdout, durableCells); err != nil {
			return err
		}
		if !bytes.Equal(stripSeconds(c.stdout), cold) {
			return fmt.Errorf("table differs from the cold run's")
		}
		return nil
	}
	args := func(a ...string) []string { return e.scenarioArgs(spec, append(a, extra...)...) }
	return []step{
		{
			name: "cold", bin: e.bin("scenarios"), args: args("-cache-dir", cache, "-journal", journal),
			before: func() error {
				if err := os.RemoveAll(cache); err != nil {
					return err
				}
				return os.RemoveAll(journal)
			},
			check: func(c childRun) error {
				_, err := parseSweep(c.stdout, durableCells)
				cold = stripSeconds(c.stdout)
				return err
			},
		},
		{name: "warm", bin: e.bin("scenarios"), args: args("-cache-dir", cache), repeat: durableRepeat, check: same},
		{name: "resume", bin: e.bin("scenarios"), args: args("-resume", journal), repeat: durableRepeat, check: same},
	}
}

func runSweepDurable(e *env) (*outcome, error) {
	o := newOutcome()
	matrix := durableMatrix()
	spec, err := setupSweep(e, o, "sweep-durable", matrix)
	if err != nil {
		return nil, err
	}
	steps := durableSteps(e, spec)
	rec, passes := runPasses(e, o, steps, true)
	cliMetrics(o, e, steps, rec, passes)
	o.set("warm_ms", median(rec["warm"].wall)*1e3, len(rec["warm"].wall))
	o.set("resume_ms", median(rec["resume"].wall)*1e3, len(rec["resume"].wall))
	o.note("cold %.3f s (n=%d), pass = cold + %d warm + %d resume", median(rec["cold"].wall), len(rec["cold"].wall), durableRepeat, durableRepeat)
	if e.traced {
		err = traceDurable(e, o, matrix, spec)
	}
	return o, err
}

// -------------------------------------------------------------- daemon

// respWriter is the minimal http.ResponseWriter the handler writes into.
type respWriter struct {
	hdr  http.Header
	code int
	body []byte
}

func newRespWriter() *respWriter { return &respWriter{hdr: http.Header{}} }

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(c int)   { w.code = c }
func (w *respWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}
func (w *respWriter) reset() {
	clear(w.hdr)
	w.code, w.body = http.StatusOK, w.body[:0]
}

// Request kinds of the daemon mix.
const (
	kNexthop = iota
	kPaths
	kWhatif
	kHealthz
	kMetrics
	nKinds
)

// preq is a pre-built request; rd re-arms a POST body between uses.
type preq struct {
	kind int
	req  *http.Request
	body []byte
	rd   *bytes.Reader
}

func newGet(kind int, target string) *preq {
	return &preq{kind: kind, req: httptest.NewRequest(http.MethodGet, target, nil)}
}

func newPost(kind int, target string, body []byte) *preq {
	rd := bytes.NewReader(body)
	return &preq{kind: kind, req: httptest.NewRequest(http.MethodPost, target, io.NopCloser(rd)), body: body, rd: rd}
}

// serveOne hands r to the handler and returns the latency in µs.
func serveOne(h http.Handler, w *respWriter, r *preq) float64 {
	if r.rd != nil {
		r.rd.Reset(r.body)
	}
	w.reset()
	t0 := time.Now()
	h.ServeHTTP(w, r.req)
	return float64(time.Since(t0).Nanoseconds()) / 1e3
}

// fabricRef is one fabric as the bench addresses it: the selector sent to
// the daemon, the dimensions queries are drawn from, and a pinned query
// set with the answers of an offline engine built from the same spec.
type fabricRef struct {
	name       string
	sel        serve.FabricSelector
	query      string // selector as URL query parameters
	nr, nl, ne int    // routers, layers, edges
	pinned     []*preq
	want       []serve.HopAnswer
}

const pinnedPerFabric = 32

// spec is the scenario cell naming the fabric, as the daemon derives it
// from a selector (the pattern is outside the fabric key).
func (f *fabricRef) spec() scenario.Spec {
	return scenario.Spec{Topology: f.sel.Topology, Pattern: scenario.Pattern{Kind: "uniform"}}
}

// fabricSeed is the seed fabrics are built at. The daemon reads 0 as "use
// the default 42", so the bench does the same.
func fabricSeed(seed int64) int64 {
	if seed == 0 {
		return 42
	}
	return seed
}

// newFabricRef builds the offline reference fabric (scenario.BuildFabric,
// the engine cmd/scenarios uses) and records its answers to a seeded set
// of (layer, src, dst) triples.
func newFabricRef(name string, t scenario.Topology, seed int64, rng *rand.Rand) (*fabricRef, error) {
	seed = fabricSeed(seed)
	f := &fabricRef{
		name:  name,
		sel:   serve.FabricSelector{Topology: t, Seed: seed},
		query: fmt.Sprintf("topo=%s&param=%d&seed=%d", t.Kind, t.Param, seed),
	}
	_, fab, err := scenario.BuildFabric(f.spec(), seed, nil)
	if err != nil {
		return nil, fmt.Errorf("offline fabric %s: %w", name, err)
	}
	f.nr, f.nl, f.ne = fab.Topo.Nr(), fab.Fwd.NumLayers(), fab.Topo.G.M()
	for i := 0; i < pinnedPerFabric; i++ {
		l, s, d := f.triple(rng)
		f.pinned = append(f.pinned, f.nexthop(l, s, d))
		f.want = append(f.want, serve.HopAnswer{
			Layer: l, Src: s, Dst: d,
			Next: fab.Fwd.Next(l, s, d), Dist: int32(fab.Fwd.PathLen(l, s, d)),
			Candidates: append([]int32{}, fab.Fwd.Candidates(l, s, d)...),
		})
	}
	return f, nil
}

func (f *fabricRef) triple(rng *rand.Rand) (layer, src, dst int) {
	src = rng.Intn(f.nr)
	dst = rng.Intn(f.nr - 1)
	if dst >= src {
		dst++
	}
	return rng.Intn(f.nl), src, dst
}

func (f *fabricRef) nexthop(l, s, d int) *preq {
	return newGet(kNexthop, fmt.Sprintf("/nexthop?%s&layer=%d&src=%d&dst=%d", f.query, l, s, d))
}

// whatif draws 1–4 failed edges and 4 queries.
func (f *fabricRef) whatif(rng *rand.Rand) *preq {
	req := serve.WhatifRequest{Fabric: f.sel}
	for n := 1 + rng.Intn(4); len(req.FailedEdges) < n; {
		req.FailedEdges = append(req.FailedEdges, rng.Intn(f.ne))
	}
	for i := 0; i < 4; i++ {
		l, s, d := f.triple(rng)
		req.Queries = append(req.Queries, serve.QueryTriple{Layer: l, Src: s, Dst: d})
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain ints and strings
	}
	return newPost(kWhatif, "/whatif", body)
}

// verifyPinned replays the pinned set and compares each answer with the
// offline engine's.
func (f *fabricRef) verifyPinned(o *outcome, h http.Handler, w *respWriter) {
	for i, r := range f.pinned {
		o.attempted++
		serveOne(h, w, r)
		var got serve.HopAnswer
		if w.code != http.StatusOK {
			o.fail("%s pinned query %d: status %d: %s", f.name, i, w.code, w.body)
		} else if err := json.Unmarshal(w.body, &got); err != nil {
			o.fail("%s pinned query %d: %v", f.name, i, err)
		} else if fmt.Sprint(got) != fmt.Sprint(f.want[i]) {
			o.fail("%s pinned query %d: daemon %v, offline engine %v", f.name, i, got, f.want[i])
		}
	}
}

// daemonClient is one closed-loop client: it sends its next request only
// when the previous reply has arrived, as the daemon's tool callers do.
type daemonClient struct {
	reqs   []*preq
	pos    int
	w      *respWriter
	lat    [nKinds][]float64
	non200 int
	sum    uint64 // FNV-1a over the reply bodies of the last issue, in order, /metrics excepted
}

func (c *daemonClient) issue(h http.Handler, n int) {
	for k := range c.lat {
		c.lat[k] = c.lat[k][:0]
	}
	hash := fnv.New64a()
	for i := 0; i < n; i++ {
		r := c.reqs[c.pos]
		c.pos = (c.pos + 1) % len(c.reqs)
		us := serveOne(h, c.w, r)
		c.lat[r.kind] = append(c.lat[r.kind], us)
		if c.w.code != http.StatusOK {
			c.non200++
		}
		if r.kind != kMetrics { // the registry dump carries wall-clock latencies
			hash.Write(c.w.body)
		}
	}
	c.sum = hash.Sum64()
}

// steadyMix draws request kinds 80/10/6/2/2.
func steadyMix(rng *rand.Rand) int {
	switch p := rng.Intn(100); {
	case p < 80:
		return kNexthop
	case p < 90:
		return kPaths
	case p < 96:
		return kWhatif
	case p < 98:
		return kHealthz
	}
	return kMetrics
}

// steadyPool pre-builds one client's request sequence.
func steadyPool(rng *rand.Rand, fabs []*fabricRef, n int) []*preq {
	pool := make([]*preq, 0, n)
	for len(pool) < n {
		f := fabs[rng.Intn(len(fabs))]
		switch steadyMix(rng) {
		case kNexthop:
			pool = append(pool, f.nexthop(f.triple(rng)))
		case kPaths:
			_, s, d := f.triple(rng)
			pool = append(pool, newGet(kPaths, fmt.Sprintf("/paths?%s&src=%d&dst=%d", f.query, s, d)))
		case kWhatif:
			pool = append(pool, f.whatif(rng))
		case kHealthz:
			pool = append(pool, newGet(kHealthz, "/healthz"))
		case kMetrics:
			pool = append(pool, newGet(kMetrics, "/metrics"))
		}
	}
	return pool
}

func selfUsage() (cpu, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

type namedTopology struct {
	name string
	t    scenario.Topology
}

var (
	sf11 = namedTopology{"SF q=11", scenario.Topology{Kind: "SF", Param: 11}}
	ft8  = namedTopology{"FT3 m=8", scenario.Topology{Kind: "FT3", Param: 8}}

	// steadyTopologies stay resident for the whole of daemon-steady.
	steadyTopologies = []namedTopology{sf11, ft8}
	// churnTopologies cycle through a 4-slot LRU, so each touch finds its
	// fabric evicted.
	churnTopologies = []namedTopology{
		sf11,
		{"JF q=11", scenario.Topology{Kind: "JF", Param: 11}},
		{"XP 16", scenario.Topology{Kind: "XP", Param: 16}},
		{"HX S=7", scenario.Topology{Kind: "HX", Param: 7}},
		ft8,
	}
)

// daemon is the in-process fixture of a daemon workload: the server, its
// registry, and the fabrics the bench addresses with their offline
// reference answers. clients is daemon-steady's, hits daemon-churn's.
type daemon struct {
	reg     *obs.Registry
	srv     *serve.Server
	fabs    []*fabricRef
	clients []*daemonClient
	hits    [][]*preq // per fabric: the /nexthop hits that follow its admission
}

func newDaemon(maxFabrics int, topos []namedTopology, seed int64, rng *rand.Rand) (*daemon, error) {
	d := &daemon{reg: obs.NewRegistry()}
	d.srv = serve.New(serve.Config{MaxFabrics: maxFabrics}, d.reg)
	for _, nt := range topos {
		f, err := newFabricRef(nt.name, nt.t, seed, rng)
		if err != nil {
			return nil, err
		}
		d.fabs = append(d.fabs, f)
	}
	return d, nil
}

// reportFabricCache copies the daemon's LRU counters into the outcome.
func (d *daemon) reportFabricCache(o *outcome) map[string]int64 {
	snap := d.reg.Snapshot()
	o.set("serve.fabric_cache_hits", float64(snap[obs.MetricServeFabricHits]), 1)
	o.set("serve.fabric_cache_misses", float64(snap[obs.MetricServeFabricMisses]), 1)
	o.set("serve.fabric_cache_evictions", float64(snap[obs.MetricServeFabricEvicts]), 1)
	return snap
}

const (
	steadyPoolSize = 8192  // pre-built requests per client, cycled
	steadyBatch    = 20000 // requests per pass over all clients
	steadyWarmup   = 5000
)

func setupSteady(e *env) (*daemon, error) {
	d, err := newDaemon(8, steadyTopologies, e.seed, rand.New(rand.NewSource(e.seed)))
	if err != nil {
		return nil, err
	}
	for c := 0; c < e.nproc; c++ {
		rng := rand.New(rand.NewSource(e.seed*1000003 + int64(c) + 1))
		d.clients = append(d.clients, &daemonClient{reqs: steadyPool(rng, d.fabs, steadyPoolSize), w: newRespWriter()})
	}
	// Admission: the first query of each fabric builds it and its tables.
	w := newRespWriter()
	for _, f := range d.fabs {
		if serveOne(d.srv.Handler(), w, f.pinned[0]); w.code != http.StatusOK {
			return nil, fmt.Errorf("admitting %s: status %d: %s", f.name, w.code, w.body)
		}
	}
	return d, nil
}

// pass has the clients issue n requests between them, each in its own
// goroutine, and returns the wall time.
func (d *daemon) pass(n int) float64 {
	h := d.srv.Handler()
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.issue(h, n/len(d.clients))
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

func runDaemonSteady(e *env) (*outcome, error) {
	o := newOutcome()
	var d *daemon
	err := medianSetup(o, func() { d = nil }, func() (err error) {
		d, err = setupSteady(e)
		return err
	})
	if err != nil {
		return nil, err
	}
	h, w := d.srv.Handler(), newRespWriter()
	for _, f := range d.fabs {
		f.verifyPinned(o, h, w)
	}
	d.pass(steadyWarmup)

	var walls, cpus []float64
	tails := passPercentiles{}
	var issued int // requests of one pass
	var perPass [nKinds]int
	for start := time.Now(); ; {
		cpu0, _ := selfUsage()
		walls = append(walls, d.pass(steadyBatch))
		cpu1, _ := selfUsage()
		cpus = append(cpus, cpu1-cpu0)
		var lat [nKinds][]float64
		var all []float64
		for _, c := range d.clients {
			for k := range lat {
				lat[k] = append(lat[k], c.lat[k]...)
				all = append(all, c.lat[k]...)
			}
			o.failed += c.non200
			c.non200 = 0
		}
		tails.add("nexthop_p50_us", lat[kNexthop], 50)
		tails.add("nexthop_p99_us", lat[kNexthop], 99)
		tails.add("whatif_p50_us", lat[kWhatif], 50)
		tails.add("serve.whatif_p99_us", lat[kWhatif], 99)
		tails.add("serve.paths_p50_us", lat[kPaths], 50)
		tails.add("serve.paths_p99_us", lat[kPaths], 99)
		tails.add("serve.query_p999_us", all, 99.9)
		o.attempted += len(all)
		if len(walls) == 1 {
			issued = len(all)
			for k := range lat {
				perPass[k] = len(lat[k])
			}
			for i, c := range d.clients {
				o.note("client %d first-pass body checksum %016x", i, c.sum)
			}
		}
		if e.spent(start, time.Duration(walls[len(walls)-1]*float64(time.Second))) {
			break
		}
	}
	for _, f := range d.fabs {
		f.verifyPinned(o, h, w)
	}
	if n := d.reportFabricCache(o)[obs.MetricServeErrors]; n != 0 {
		o.fail("daemon counted %d request errors", n)
	}

	n := len(walls)
	wall := median(walls)
	_, rss := selfUsage()
	o.untracedWall = wall
	o.set("wall_s", wall, n)
	o.set("peak_rss_mb", rss, 1)
	o.set("queries_per_s", float64(issued)/wall, n)
	tails.report(o)
	o.set("exec.cpu_s", median(cpus), n)
	o.set("exec.core_util", median(cpus)/(wall*float64(e.nproc)), n)
	o.note("%d passes of %d requests, %d closed-loop clients; samples per pass: nexthop %d, paths %d, whatif %d",
		n, issued, len(d.clients), perPass[kNexthop], perPass[kPaths], perPass[kWhatif])
	if e.traced {
		err = traceDaemonSteady(e, o, d)
	}
	return o, err
}

const churnHits = 100 // /nexthop hits after each admission

func setupChurn(e *env) (*daemon, error) {
	rng := rand.New(rand.NewSource(e.seed))
	d, err := newDaemon(4, churnTopologies, e.seed, rng)
	if err != nil {
		return nil, err
	}
	for _, f := range d.fabs {
		hits := make([]*preq, 0, churnHits)
		for len(hits) < churnHits {
			hits = append(hits, f.nexthop(f.triple(rng)))
		}
		d.hits = append(d.hits, hits)
	}
	return d, nil
}

func runDaemonChurn(e *env) (*outcome, error) {
	o := newOutcome()
	var d *daemon
	err := medianSetup(o, func() { d = nil }, func() (err error) {
		d, err = setupChurn(e)
		return err
	})
	if err != nil {
		return nil, err
	}
	h, w := d.srv.Handler(), newRespWriter()

	touch := make([][]float64, len(d.fabs)) // per fabric: admission + hits, s
	var admits []float64                    // ms
	passes := 0
	cpu0, _ := selfUsage()
	for start := time.Now(); ; {
		t0 := time.Now()
		for i, f := range d.fabs {
			o.attempted += 1 + churnHits
			ft := time.Now()
			us := serveOne(h, w, f.pinned[0]) // first query on a miss: the admission wait
			if w.code != http.StatusOK {
				o.fail("admitting %s: status %d: %s", f.name, w.code, w.body)
			}
			admits = append(admits, us/1e3)
			for _, r := range d.hits[i] {
				if serveOne(h, w, r); w.code != http.StatusOK {
					o.fail("%s hit: status %d", f.name, w.code)
				}
			}
			touch[i] = append(touch[i], time.Since(ft).Seconds())
			f.verifyPinned(o, h, w) // untimed
		}
		passes++
		if e.spent(start, time.Since(t0)) {
			break
		}
	}
	if got, want := d.reportFabricCache(o)[obs.MetricServeFabricMisses], int64(passes*len(d.fabs)); got != want {
		o.fail("%d fabric-cache misses, want %d: a touch found its fabric resident", got, want)
	}
	var wall float64
	for _, ts := range touch {
		wall += median(ts)
	}
	cpu1, rss := selfUsage()
	o.untracedWall = wall
	o.set("wall_s", wall, passes)
	o.set("peak_rss_mb", rss, 1)
	o.set("exec.cpu_s", (cpu1-cpu0)/float64(passes), passes)
	o.set("exec.core_util", (cpu1-cpu0)/float64(passes)/(wall*float64(e.nproc)), passes)
	o.set("admit_p50_ms", percentile(admits, 50), len(admits))
	o.set("admit_p90_ms", percentile(admits, 90), len(admits))
	o.note("%d cycles over %d fabrics through a 4-slot LRU, %d hits after each admission", passes, len(d.fabs), churnHits)
	if e.traced {
		err = traceDaemonChurn(e, o, d)
	}
	return o, err
}
