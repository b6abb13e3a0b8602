package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/scenario"
)

// fingerprintHistory pins every scenario.EngineFingerprint next to the
// digest (resultsDigest) of what it versions: the matrix goldens and the
// netsim flow-result digests. A change that moves either moves what a
// cached cell or a resumable journal would replay, so it must bump the
// fingerprint and append a row here; an earlier row is history and never
// changes.
var fingerprintHistory = []struct{ fingerprint, digest string }{
	{"fatpaths-engine-v1", "a18274c381683eb46aa8e3961ac46343cbad9ea8c7c4108d050357b07a6291ff"},
	{"fatpaths-engine-v2", "40238c71b72d2a07057070891d7209f86b7f8ecc405c100a020aaa428ef0d433"},
	// v3: SPAIN's layer cap became plain, so a one-layer spain cell keeps
	// layer 0 alone; no golden or flow digest moved.
	{"fatpaths-engine-v3", "40238c71b72d2a07057070891d7209f86b7f8ecc405c100a020aaa428ef0d433"},
	// v4: a class-sized JF is wired from the topology seed's stream without
	// first drawing an XP lift, so its cells change; no golden or flow
	// digest moved.
	{"fatpaths-engine-v4", "40238c71b72d2a07057070891d7209f86b7f8ecc405c100a020aaa428ef0d433"},
}

// flowDigestRow matches one row of netsim's eventCoreCases: its name and,
// last, the flowDigest TestFlowResultsPinned holds it to.
var flowDigestRow = regexp.MustCompile(`(?m)^\t\{"([\w-]+)",.*, (0x[0-9a-f]+)\},$`)

// resultsDigest hashes, in a fixed order, each scenario-backed ID's golden
// table and each pinned netsim flow-result digest.
func resultsDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	for _, id := range scenarioBacked {
		b, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(id + "\n"))
		h.Write(b)
	}
	src, err := os.ReadFile(filepath.Join("..", "netsim", "eventcore_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	rows := flowDigestRow.FindAllSubmatch(src, -1)
	if len(rows) == 0 {
		t.Fatal("no pinned flow-result digest found in netsim's eventCoreCases")
	}
	for _, r := range rows {
		h.Write([]byte(string(r[1]) + " " + string(r[2]) + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEngineFingerprintBumped makes the bump rule of EngineFingerprint
// mechanical: the last row of fingerprintHistory must be the current
// fingerprint with the current results digest, and no fingerprint may
// appear twice. Re-pinning a matrix golden or a flow digest therefore fails
// here until the fingerprint is bumped and a row appended.
func TestEngineFingerprintBumped(t *testing.T) {
	seen := map[string]bool{}
	for _, row := range fingerprintHistory {
		if seen[row.fingerprint] {
			t.Fatalf("fingerprint %q pinned twice", row.fingerprint)
		}
		seen[row.fingerprint] = true
	}
	last := fingerprintHistory[len(fingerprintHistory)-1]
	digest := resultsDigest(t)
	switch {
	case last.fingerprint != scenario.EngineFingerprint:
		t.Fatalf("EngineFingerprint is %q, the last pinned one %q: append {%q, %q}",
			scenario.EngineFingerprint, last.fingerprint, scenario.EngineFingerprint, digest)
	case last.digest != digest:
		t.Fatalf("the matrix goldens or netsim flow digests changed (digest %s, pinned %s) under EngineFingerprint %q: bump it and append {<new fingerprint>, %q}",
			digest, last.digest, last.fingerprint, digest)
	}
}
