package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// runAsCommand, when set in the environment, makes the test binary run
// main instead of the tests, so a test can execute the command end to end.
const runAsCommand = "TOPOINFO_TEST_RUN_MAIN"

var update = flag.Bool("update", false, "rewrite the stdout golden under testdata/")

func TestMain(m *testing.M) {
	if os.Getenv(runAsCommand) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes topoinfo with args end to end and returns its stdout, its
// stderr and its exit status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsCommand+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

// TestStdoutGolden runs `topoinfo -topo HX -size small` end to end and compares its stdout
// byte for byte with the committed fixture. Regenerate with -update after
// an intended change.
func TestStdoutGolden(t *testing.T) {
	got, stderr, code := run(t, "-topo", "HX", "-size", "small")
	if code != 0 {
		t.Fatalf("exit status %d\n%s", code, stderr)
	}
	golden := filepath.Join("testdata", "hx_small.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	if got != string(want) {
		t.Fatalf("stdout differs from %s:\n%s", golden, got)
	}
}

// TestDescribesTheScenarioTopology: for every class-sized kind and seed,
// topoinfo's header line describes the graph scenario.BuildTopology builds
// from the same -topo/-size/-seed, the one cmd/fatpaths, cmd/scenarios and
// fatpathsd use.
func TestDescribesTheScenarioTopology(t *testing.T) {
	for _, kind := range []string{"SF", "DF", "HX", "XP", "FT3", "FT", "JF", "Clique"} {
		for _, seed := range []int64{1, 42} {
			tp, err := scenario.BuildTopology(scenario.Spec{Topology: scenario.Topology{Kind: kind, Class: "small"}}, seed)
			if err != nil {
				t.Fatal(err)
			}
			d, mean := tp.G.DiameterAndMean()
			want := fmt.Sprintf("%s: Nr=%d N=%d k'=%d M=%d D=%d d=%.3f density=%.2f\n",
				tp.Name, tp.Nr(), tp.N(), tp.NominalRadix, tp.G.M(), d, mean, tp.EdgeDensity())
			out, stderr, code := run(t, "-topo", kind, "-size", "small", "-seed", fmt.Sprint(seed), "-samples", "2", "-quiet")
			if code != 0 {
				t.Fatalf("%s seed %d: exit status %d\n%s", kind, seed, code, stderr)
			}
			if got, _, _ := strings.Cut(out, "\n"); got+"\n" != want {
				t.Errorf("%s seed %d: header\n  %s\nwant\n  %s", kind, seed, got, want)
			}
		}
	}
}

// TestRejectsAnInvalidTopology: the topology is validated before it is
// built, so a kind with no size class is named as such.
func TestRejectsAnInvalidTopology(t *testing.T) {
	_, stderr, code := run(t, "-topo", "Star", "-quiet")
	if code != 1 || !strings.Contains(stderr, "set param") {
		t.Fatalf("exit status %d, stderr %q: want 1 and validate's set-param message", code, stderr)
	}
}
