package exec

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestCellsJournalAndProgress pins what the one cell loop owns around fn:
// values in cell order, run_start / one keyed cell record per cell with
// fn's source tag / run_end with the worker utilization, and serialized
// progress callbacks counting 1..n.
func TestCellsJournalAndProgress(t *testing.T) {
	const n = 9
	var tel bytes.Buffer
	var mu sync.Mutex
	var dones []int
	r := Run{
		Seed: 5, Parallelism: 4, Name: "unit",
		Telemetry: obs.NewTelemetry(&tel),
		Progress: func(done, total int) {
			if total != n {
				t.Errorf("progress total = %d, want %d", total, n)
			}
			mu.Lock()
			dones = append(dones, done)
			mu.Unlock()
		},
	}
	key := func(i int) string { return "k" + string(rune('a'+i)) }
	out, err := Cells(r, n, key, func(i int) (int, string, error) {
		source := ""
		if i%2 == 1 {
			source = "cache"
		}
		return i * i, source, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress done[%d] = %d, want %d (calls must be serialized)", i, d, i+1)
		}
	}
	if len(dones) != n {
		t.Fatalf("progress called %d times, want %d", len(dones), n)
	}

	lines := strings.Split(strings.TrimSpace(tel.String()), "\n")
	if len(lines) != n+2 {
		t.Fatalf("journal has %d lines, want %d (run_start + cells + run_end)", len(lines), n+2)
	}
	seen := map[string]bool{}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		switch {
		case i == 0:
			if rec["type"] != "run_start" || rec["name"] != "unit" || rec["cells"] != float64(n) ||
				rec["workers"] != float64(4) || rec["seed"] != float64(5) {
				t.Fatalf("bad run_start: %s", line)
			}
		case i == len(lines)-1:
			util, ok := rec["workerUtil"].(float64)
			if rec["type"] != "run_end" || rec["cells"] != float64(n) || !ok || util < 0 || util > 1 {
				t.Fatalf("bad run_end: %s", line)
			}
		default:
			idx := int(rec["index"].(float64))
			wantSource := any(nil)
			if idx%2 == 1 {
				wantSource = "cache"
			}
			if rec["type"] != "cell" || rec["key"] != key(idx) || rec["source"] != wantSource {
				t.Fatalf("bad cell record: %s", line)
			}
			seen[key(idx)] = true
		}
	}
	if len(seen) != n {
		t.Fatalf("journal names %d distinct cells, want %d", len(seen), n)
	}
}

// TestCellsErrorNamesTheCell: a failing cell aborts the run with an error
// carrying its index and key, its cell record carries the cause, and an
// unobserved run (zero Run) works without any collaborator.
func TestCellsErrorNamesTheCell(t *testing.T) {
	boom := errors.New("boom")
	var tel bytes.Buffer
	_, err := Cells(Run{Parallelism: 1, Telemetry: obs.NewTelemetry(&tel)}, 3,
		func(i int) string { return "topo=SF" },
		func(i int) (int, string, error) {
			if i == 1 {
				return 0, "", boom
			}
			return i, "", nil
		})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "cell 1 (topo=SF)") {
		t.Fatalf("err = %v, want boom wrapped with the cell's index and key", err)
	}
	if !strings.Contains(tel.String(), `"err":"boom"`) {
		t.Fatalf("failed cell's record does not carry the cause:\n%s", tel.String())
	}
	out, err := Cells(Run{}, 2, func(int) string { return "" },
		func(i int) (int, string, error) { return i + 1, "", nil })
	if err != nil || len(out) != 2 || out[0] != 1 || out[1] != 2 {
		t.Fatalf("zero Run: out = %v, err = %v", out, err)
	}
}

// TestCellTracer: the tracer goes to cell 0 of a run and to no other cell,
// so the simulation a trace records cannot depend on which worker starts
// first.
func TestCellTracer(t *testing.T) {
	tr := obs.NewTracer(1)
	r := Run{Tracer: tr}
	if r.CellTracer(0) != tr {
		t.Fatal("cell 0 did not get the tracer")
	}
	for _, cell := range []int{1, 2, 7} {
		if r.CellTracer(cell) != nil {
			t.Fatalf("cell %d got the tracer", cell)
		}
	}
	if (Run{}).CellTracer(0) != nil {
		t.Fatal("an untraced run handed out a tracer")
	}
}
