package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runAsCommand, when set in the environment, makes the test binary run
// main instead of the tests, so a test can execute the command end to end.
const runAsCommand = "FATPATHS_TEST_RUN_MAIN"

var update = flag.Bool("update", false, "rewrite the stdout golden under testdata/")

func TestMain(m *testing.M) {
	if os.Getenv(runAsCommand) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStdoutGolden runs `fatpaths -topo SF -deadlock` end to end and compares its stdout
// byte for byte with the committed fixture. Regenerate with -update after
// an intended change.
func TestStdoutGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-topo", "SF", "-deadlock")
	cmd.Env = append(os.Environ(), runAsCommand+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.Bytes())
	}
	golden := filepath.Join("testdata", "sf_deadlock.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stdout differs from %s:\n%s", golden, got)
	}
}

// TestFailingRunKeepsObsOutput: a run that fails after the observability
// sinks started still tears them down, so -metrics dumps the registry.
func TestFailingRunKeepsObsOutput(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-topo", "bogus", "-metrics", "-quiet")
	cmd.Env = append(os.Environ(), runAsCommand+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit status 1, got %v\n%s", err, stderr.Bytes())
	}
	if !strings.Contains(stderr.String(), "# metrics") {
		t.Errorf("no metrics dump on stderr:\n%s", stderr.Bytes())
	}
}
