// Command bench is the repository's benchmark: six workloads over the
// three things a user waits for (one experiment ID, one scenario matrix
// cold and warm, daemon admission and query latency), each checked for
// correct output, plus a traced pass that times every layer from
// bench-owned code. See README.md in this directory.
//
//	bash bench/run.sh                         all six workloads, untraced
//	bash bench/run.sh -traced                 plus the per-layer pass and bench/out/trace.json
//	bash bench/run.sh -workload sweep-tcp     one workload; last line is the driver's JSON
//	bash bench/run.sh -aa 5                   A/A: 5+5 alternating runs per workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds mirrors run_seconds in BENCHMARK.json.
const defaultSeconds = 12

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and end with the driver's one-line JSON result (default: all six)")
		seed     = flag.Int64("seed", 42, "seed for everything the bench generates: CLI -seed, query triples, failed-edge sets, request order")
		seconds  = flag.Float64("seconds", defaultSeconds, "measuring time per workload")
		trace    = flag.Int("trace", 0, "1 = halve the untraced measurement and add the traced per-layer pass")
		traced   = flag.Bool("traced", false, "same as -trace 1")
		aa       = flag.Int("aa", 0, "A/A mode: N+N alternating untraced runs of this same tree per workload, compared against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 || *aa < 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *traced || *trace == 1, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// findRoot walks up from the working directory to the checkout: the
// directory whose go.mod declares module repro.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module repro\n") {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "scenarios")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout of module repro (go.mod, cmd/scenarios) at or above the working directory")
		}
		dir = parent
	}
}

func selectWorkloads(name string) ([]workloadDef, error) {
	if name == "" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workloadDef{w}, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func run(workload string, seed int64, seconds float64, traced bool, aa int) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	todo, err := selectWorkloads(workload)
	if err != nil {
		return err
	}
	// Everything written stays inside the checkout, the Go build cache and
	// the toolchain's temporary files included.
	build := filepath.Join(root, ".bench_build")
	for key, sub := range map[string]string{"GOCACHE": "gocache", "GOTMPDIR": "gotmp"} {
		if os.Getenv(key) == "" {
			os.Setenv(key, filepath.Join(build, sub))
		}
		if err := os.MkdirAll(os.Getenv(key), 0o755); err != nil {
			return err
		}
	}
	if aa > 0 {
		return runAA(root, todo, seed, seconds, aa)
	}

	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	rep := report{Fingerprint: fingerprint(root), Seed: seed, Seconds: seconds, Traced: traced, Workloads: map[string]workloadReport{}}
	log := &spanLog{epoch: time.Now()}
	bad := false
	var last *outcome
	for _, w := range todo {
		e := &env{root: root, work: work, seed: seed, seconds: seconds, traced: traced, nproc: runtime.NumCPU(), trace: log}
		log.workload = w.name
		o, err := w.run(e)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if o.attempted > 0 {
			o.set("failed_frac", float64(o.failed)/float64(o.attempted), o.attempted)
		}
		printOutcome(w, o, seed, seconds, traced)
		rep.Workloads[w.name] = workloadReport{Attempted: o.attempted, Failed: o.failed, Metrics: o.vals, Notes: o.notes}
		bad = bad || o.failed > 0 || o.attempted == 0
		last = o
	}
	rep.Fingerprint.LoadEnd = loadAvg()
	if err := writeJSON(filepath.Join(outDir, "report.json"), rep); err != nil {
		return err
	}
	if traced {
		if err := writeJSON(filepath.Join(outDir, "trace.json"), log.spans); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans -> bench/out/trace.json\n", len(log.spans))
	}
	if workload != "" {
		if err := printDriverLine(last, traced); err != nil {
			return err
		}
	}
	if bad {
		return fmt.Errorf("correctness checks failed (see FAIL lines above)")
	}
	return nil
}

// report is bench/out/report.json: every metric of the run with the
// machine it was taken on.
type report struct {
	Fingerprint machine                   `json:"fingerprint"`
	Seed        int64                     `json:"seed"`
	Seconds     float64                   `json:"seconds"`
	Traced      bool                      `json:"traced"`
	Workloads   map[string]workloadReport `json:"workloads"`
}

type workloadReport struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
}

type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	LoadStart  string `json:"load1Start"`
	LoadEnd    string `json:"load1End"`
}

func fingerprint(root string) machine {
	m := machine{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown", LoadStart: loadAvg()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; the commit is then
	// unknown, and git must not go looking for one above it.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := cmd.Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.Fields(string(b))[0]
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printOutcome(w workloadDef, o *outcome, seed int64, seconds float64, traced bool) {
	mode := "untraced"
	if traced {
		mode = "untraced half + traced pass"
	}
	fmt.Printf("== %s (seed %d, %g s, %s) ==\n   %s\n", w.name, seed, seconds, mode, w.why)
	row := func(d metricDef) {
		if m, ok := o.vals[d.name]; ok {
			fmt.Printf("  %-34s %14.6g %-6s n=%d\n", d.name, m.Value, m.Unit, m.N)
		}
	}
	for _, d := range endToEnd {
		row(d)
	}
	for _, d := range perLayer {
		row(d)
	}
	fmt.Printf("  attempted %d, failed %d\n", o.attempted, o.failed)
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	fmt.Println()
}

// driverResult is the one-line result the benchmark driver reads.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printDriverLine prints every end-to-end metric of an untraced run, or
// every per-layer metric of a traced one (0 where the workload does not
// exercise the layer).
func printDriverLine(o *outcome, traced bool) error {
	list := endToEnd
	if traced {
		list = perLayer
	}
	res := driverResult{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]driverMetric{}}
	for _, d := range list {
		m, ok := o.vals[d.name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = driverMetric{Value: m.Value, Unit: d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runAA measures this tree against itself the way the driver does: per
// workload 2N child runs of this binary with the driver's own flags, a new
// seed each, alternately labelled A and B. It prints, per end-to-end
// metric, both medians, A's quartiles, the spread (IQR/median) of each side
// and the gap between the medians, against the metric's bound.
func runAA(root string, todo []workloadDef, seed int64, seconds float64, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("A/A: %d+%d runs per workload, %g s each, seeds from %d\n\n", n, n, seconds, seed)
	fmt.Println("| workload | metric | median A | median B | A q1..q3 | spread A | spread B | gap B vs A | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	bad := false
	for _, w := range todo {
		sides := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed+int64(i)), "-seconds", fmt.Sprint(seconds), "-trace", "0")
			cmd.Dir = root
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %v", w.name, i, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res driverResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s run %d: last line is not a result: %v", w.name, i, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s run %d: %d of %d operations failed", w.name, i, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				sides[i%2][name] = append(sides[i%2][name], m.Value)
			}
		}
		for _, d := range endToEnd {
			a, b := sides[0][d.name], sides[1][d.name]
			q1, ma, q3 := quartiles(a)
			_, mb, _ := quartiles(b)
			gap := (mb - ma) / ma
			if d.better == "higher" {
				gap = -gap
			}
			verdict := "ok"
			// setup_s is held to its bound on the gap only, as the driver does.
			if gap > d.bound || (d.name != "setup_s" && max(spread(a), spread(b)) > d.bound) {
				verdict, bad = "FAIL", true
			} else if d.name != "setup_s" && max(spread(a), spread(b)) > d.bound/3 {
				verdict = "ok (spread above bound/3)"
			}
			fmt.Printf("| %s | %s | %.5g | %.5g | %.5g..%.5g | %.1f%% | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				w.name, d.name, ma, mb, q1, q3, 100*spread(a), 100*spread(b), 100*gap, 100*d.bound, verdict)
		}
	}
	if bad {
		return fmt.Errorf("A/A: a metric left its bound on identical code")
	}
	return nil
}
