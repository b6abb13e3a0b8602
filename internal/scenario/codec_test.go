package scenario

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/wire"
)

// oracleStrings are the strings a random result draws from: ones
// encoding/json writes verbatim, and ones it escapes — HTML characters, a
// quote, a backslash, control characters, U+2028, non-ASCII and invalid
// UTF-8.
var oracleStrings = []string{
	"", "SF", "SF(q=3,p=3)", "uniform", "a b=c|d/e", "<b>", "a&b", `say "hi"`,
	`back\slash`, "tab\there", "\x01\x1f", "line\u2028sep", "né", "\xff\xfe",
	"del\x7f", "~",
}

// oracleFloats are the float edge cases of encoding/json's rule: both
// zeros, both ends of the 'f' range, the smallest subnormal and the
// largest finite value.
var oracleFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, 1e-6, 9.999999999999999e20, 1e21, 5e-324,
	math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, 123456.789, -2.5e-9,
	1e300, 0.9,
}

// oracleDraw draws the parts of a random CellResult.
type oracleDraw struct {
	rng *rand.Rand
	// nonFinite is the chance that a NaN or an infinity drawn for a float
	// outside a summary, which json.Marshal refuses, is kept.
	nonFinite float64
}

func (d oracleDraw) str() string {
	return oracleStrings[d.rng.Intn(len(oracleStrings))]
}

// float draws an edge case, a random magnitude, random bits or a
// non-finite value. A NaN or an infinity is kept with probability keep,
// else drawn again.
func (d oracleDraw) float(keep float64) float64 {
	for {
		var f float64
		switch d.rng.Intn(4) {
		case 0:
			f = oracleFloats[d.rng.Intn(len(oracleFloats))]
		case 1:
			f = d.rng.NormFloat64() * math.Pow(10, float64(d.rng.Intn(60)-30))
		case 2:
			f = math.Float64frombits(d.rng.Uint64())
		default:
			f = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[d.rng.Intn(3)]
		}
		if !math.IsNaN(f) && !math.IsInf(f, 0) || d.rng.Float64() < keep {
			return f
		}
	}
}

// opt draws a float outside a summary: zero (omitted where the tag says
// omitempty) half the time.
func (d oracleDraw) opt() float64 {
	if d.rng.Intn(2) == 0 {
		return 0
	}
	return d.float(d.nonFinite)
}

func (d oracleDraw) int() int {
	switch d.rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return math.MinInt64
	case 2:
		return math.MaxInt64
	}
	return d.rng.Intn(2000) - 1000
}

func (d oracleDraw) summary() stats.Summary {
	s := stats.Summary{N: d.int()}
	for _, f := range []*float64{&s.Mean, &s.P01, &s.P10, &s.P50, &s.P90, &s.P99, &s.P999} {
		*f = d.float(0.5)
	}
	return s
}

func (d oracleDraw) result() CellResult {
	return CellResult{
		Spec: Spec{
			Name: d.str(),
			Topology: Topology{
				Kind: d.str(), Class: d.str(), Param: d.int(), Param2: d.int(),
			},
			Layers: d.int(), Rho: d.opt(), Construction: d.str(),
			Routing: d.str(), Transport: d.str(),
			Pattern: Pattern{
				Kind: d.str(), Offset: d.int(), K: d.int(), Intensity: d.opt(),
				Randomize: d.rng.Intn(2) == 0,
			},
			FlowSize: FlowSize{Kind: d.str(), Bytes: int64(d.int())},
			Load:     d.opt(), FailFrac: d.opt(), Replicas: d.int(), HorizonMs: d.opt(),
			MAT: d.rng.Intn(2) == 0,
		},
		TopoName: d.str(), TopoN: d.int(), Layers: d.int(), Rho: d.float(d.nonFinite),
		Flows: d.int(), Completed: d.float(d.nonFinite),
		Throughput: d.summary(), FCT: d.summary(),
		Drops: int64(d.int()), Trims: int64(d.int()), FailedLinks: d.int(), MAT: d.opt(),
	}
}

// sameEncoding checks that a hand encoding (got, gotErr) is json.Marshal's
// (want, wantErr): the same bytes, or the same error.
func sameEncoding(t *testing.T, what string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s: hand error %v, encoding/json error %v\n%s", what, gotErr, wantErr, want)
	case wantErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s: hand error %q, encoding/json error %q", what, gotErr, wantErr)
	case wantErr == nil && !bytes.Equal(got, want):
		t.Fatalf("%s:\n hand %s\n json %s", what, got, want)
	}
}

// TestWriterMatchesMarshal: for random results, strings that need escapes
// and every float edge case among them, the hand writers give the bytes
// json.Marshal gives a CellResult, a cache entry and a journal record —
// and json.MarshalIndent's with the encoder indenting — or fail exactly
// when it fails, with its message: on a NaN or an infinity outside a
// summary.
func TestWriterMatchesMarshal(t *testing.T) {
	d := oracleDraw{rng: rand.New(rand.NewSource(1)), nonFinite: 0.02}
	failed := 0
	for i := 0; i < 3000; i++ {
		r := d.result()
		want, wantErr := json.Marshal(r)
		e := wire.Encoder{}
		r.WriteJSON(&e)
		sameEncoding(t, "CellResult", e.B, e.Err(), want, wantErr)
		if wantErr != nil {
			failed++
		}

		want, wantErr = json.MarshalIndent(r, "", "  ")
		e = wire.Encoder{Indent: true}
		r.WriteJSON(&e)
		sameEncoding(t, "indented CellResult", e.B, e.Err(), want, wantErr)

		ce := cacheEntry{Fingerprint: d.str(), Identity: d.str(), Result: r}
		want, wantErr = json.Marshal(ce)
		got, err := appendCacheEntry(nil, &ce)
		sameEncoding(t, "cache entry", got, err, want, wantErr)

		cd := CellDone{Type: d.str(), Identity: d.str(), Key: d.str(), Result: r}
		want, wantErr = json.Marshal(cd)
		got, err = appendCellDone(nil, &cd)
		sameEncoding(t, "journal record", got, err, want, wantErr)

		h := JournalHeader{Type: d.str(), Name: d.str(), Seed: int64(d.int()), SpecHash: d.str(), Fingerprint: d.str(), Cells: d.int()}
		want, wantErr = json.Marshal(h)
		sameEncoding(t, "journal header", appendHeader(nil, &h), nil, want, wantErr)
	}
	if failed == 0 || failed > 1500 {
		t.Fatalf("%d of 3000 draws failed to encode: the draw no longer tests both outcomes", failed)
	}
}

// TestReadersTakeWhatWritersWrite: every result the writers can encode
// whose strings need no escapes reads back by hand to the value
// json.Unmarshal gives the same bytes, its spec stepped over.
func TestReadersTakeWhatWritersWrite(t *testing.T) {
	d := oracleDraw{rng: rand.New(rand.NewSource(2))}
	plain := oracleStrings[:5]
	for i := 0; i < 2000; i++ {
		r := d.result()
		for _, s := range []*string{&r.Spec.Name, &r.Spec.Topology.Kind, &r.Spec.Topology.Class,
			&r.Spec.Construction, &r.Spec.Routing, &r.Spec.Transport, &r.Spec.Pattern.Kind,
			&r.Spec.FlowSize.Kind, &r.TopoName} {
			*s = plain[d.rng.Intn(len(plain))]
		}
		ce := cacheEntry{Fingerprint: EngineFingerprint, Identity: r.Spec.CacheIdentity(42), Result: r}
		b, err := appendCacheEntry(nil, &ce)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := readCacheEntry(b)
		if !ok {
			t.Fatalf("the hand reader refused a written entry:\n%s", b)
		}
		want, err := unmarshalEntry(b)
		if err != nil {
			t.Fatal(err)
		}
		sameValue(t, got, want)

		cd := CellDone{Type: "cell_done", Identity: ce.Identity, Key: r.Spec.Key(), Result: r}
		if b, err = appendCellDone(nil, &cd); err != nil {
			t.Fatal(err)
		}
		gotCD, ok := readCellDone(b)
		if !ok {
			t.Fatalf("the hand reader refused a written record:\n%s", b)
		}
		wantCD, err := unmarshalRecord(b)
		if err != nil {
			t.Fatal(err)
		}
		sameValue(t, gotCD, wantCD)
	}
}

// resultMirror is a CellResult as the hand readers read one: its spec is
// stepped over (here, taken as raw JSON), so the CellResult's Spec stays
// zero.
type resultMirror struct {
	CellResult
	Spec json.RawMessage `json:"spec"`
}

// unmarshalEntry reads an entry with json.Unmarshal as readCacheEntry
// reads it: every member, but the result's spec only as valid JSON.
func unmarshalEntry(b []byte) (cacheEntry, error) {
	var m struct {
		cacheEntry
		Result resultMirror `json:"result"`
	}
	err := json.Unmarshal(b, &m)
	m.cacheEntry.Result = m.Result.CellResult
	return m.cacheEntry, err
}

// unmarshalRecord reads a cell_done line with json.Unmarshal as
// readCellDone reads it.
func unmarshalRecord(b []byte) (CellDone, error) {
	var m struct {
		CellDone
		Result resultMirror `json:"result"`
	}
	err := json.Unmarshal(b, &m)
	m.CellDone.Result = m.Result.CellResult
	return m.CellDone, err
}

// sameValue compares two decoded values through their json.Marshal
// bytes: every float bit-exact (the shortest round-trip form tells -0
// from 0) and NaN equal to NaN (a summary writes it as "NaN").
func sameValue(t *testing.T, got, want any) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("hand read differs from json.Unmarshal:\n hand %s\n json %s", g, w)
	}
}

// TestRecordedSpecIsSkipped: the readers step over a result's recorded
// spec, so one that is valid JSON but no Spec ("topology":5, "layers":"x")
// still hits and resumes, and the caller's spec replaces it.
func TestRecordedSpecIsSkipped(t *testing.T) {
	cells, _, err := tinyMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	s := cells[0]
	spec, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	wrong := func(b []byte) []byte {
		if !bytes.Contains(b, spec) {
			t.Fatalf("no recorded spec %s in:\n%s", spec, b)
		}
		return bytes.Replace(b, spec, []byte(`{"topology":5,"layers":"x","pattern":{"kind":1}}`), 1)
	}
	c := openTestCache(t)
	b := putAndRead(t, c, s, 7, CellResult{Spec: s, Flows: 3})
	if err := os.WriteFile(c.path(identityKey(s.CacheIdentity(7))), wrong(b), 0o644); err != nil {
		t.Fatal(err)
	}
	if r, _, ok := c.Get(s, 7); !ok || r.Flows != 3 || r.Spec != s {
		t.Fatalf("Get = %+v, %t; want a hit with 3 flows and the caller's spec", r, ok)
	}
	j, _, err := ResumeJournal(writeTestJournal(t, cells, 7, 1, wrong), cells, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if r, ok := j.recorded(s, 7); !ok || r.Flows != 1 || r.Spec != s {
		t.Fatalf("recorded = %+v, %t; want the record with 1 flow and the caller's spec", r, ok)
	}
}

// TestColdRunTakesHandPath: a small matrix run cold writes cache entries
// and journal lines that the hand readers take, every one, so a warm or
// resumed run of it never reaches json.Unmarshal.
func TestColdRunTakesHandPath(t *testing.T) {
	cells, _, err := tinyMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	cache := openTestCache(t)
	j, path := newTestJournal(t, cells, 7)
	if _, err := RunSpecs(cells, RunOptions{Run: exec.Run{Seed: 7, Parallelism: 2}, Cache: cache, Journal: j}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries := 0
	err = filepath.WalkDir(cache.dir, func(p string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if _, ok := readCacheEntry(b); !ok {
			t.Errorf("cache entry %s does not take the hand path:\n%s", p, b)
		}
		entries++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if entries != len(cells) {
		t.Fatalf("found %d cache entries for %d cells", entries, len(cells))
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(b, []byte{'\n'}), []byte{'\n'})
	if len(lines) != 1+len(cells) {
		t.Fatalf("journal has %d lines for %d cells", len(lines), len(cells))
	}
	if _, ok := readHeader(lines[0]); !ok {
		t.Errorf("journal header does not take the hand path:\n%s", lines[0])
	}
	for _, line := range lines[1:] {
		if _, ok := readCellDone(line); !ok {
			t.Errorf("journal record does not take the hand path:\n%s", line)
		}
	}
}
