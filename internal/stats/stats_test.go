package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleMeanAndPercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if m := s.Mean(); m != 50.5 {
		t.Fatalf("mean=%f, want 50.5", m)
	}
	if p := s.Percentile(0); p != 1 {
		t.Fatalf("p0=%f, want 1", p)
	}
	if p := s.Percentile(1); p != 100 {
		t.Fatalf("p100=%f, want 100", p)
	}
	if p := s.Percentile(0.5); math.Abs(p-50.5) > 1e-9 {
		t.Fatalf("median=%f, want 50.5", p)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
	if !math.IsNaN(s.Percentile(0.5)) {
		t.Fatal("empty percentile should be NaN")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var s Sample
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				s.Add(x)
			}
		}
		if s.Summarize().N == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.05 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	var s Sample
	for i := 0; i < 1000; i++ {
		s.Add(float64(i))
	}
	sum := s.Summarize()
	if sum.N != 1000 {
		t.Fatal("wrong N")
	}
	if sum.P99 < 980 || sum.P99 > 995 {
		t.Fatalf("p99=%f", sum.P99)
	}
	if !strings.Contains(sum.String(), "n=1000") {
		t.Fatal("String should include count")
	}
}

func TestIntHistogram(t *testing.T) {
	h := NewIntHistogram()
	h.Add(1)
	h.Add(1)
	h.Add(3)
	h.AddN(5, 2)
	if h.Total != 5 {
		t.Fatalf("total=%d", h.Total)
	}
	if h.Fraction(1) != 0.4 {
		t.Fatalf("fraction(1)=%f", h.Fraction(1))
	}
	if h.FractionAtLeast(3) != 0.6 {
		t.Fatalf("fracAtLeast(3)=%f", h.FractionAtLeast(3))
	}
	keys := h.Keys()
	if len(keys) != 3 || keys[0] != 1 || keys[2] != 5 {
		t.Fatalf("keys=%v", keys)
	}
	if m := h.Mean(); math.Abs(m-3.0) > 1e-9 {
		t.Fatalf("mean=%f, want 3", m)
	}
}

func TestIntHistogramEmpty(t *testing.T) {
	h := NewIntHistogram()
	if h.Fraction(0) != 0 || h.FractionAtLeast(0) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram fractions should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "demo", Headers: []string{"name", "value"}}
	tab.AddRowf("alpha", 1)
	tab.AddRowf("beta", 2.5)
	out := tab.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") || !strings.Contains(out, "2.5") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
}

// TestSummaryJSONRoundTrip: Summary survives JSON both for ordinary
// finite digests and for empty-sample digests whose percentiles are NaN
// (and any ±Inf) — encoding/json rejects non-finite numbers, so the
// scenario result cache and run journal depend on this round trip.
func TestSummaryJSONRoundTrip(t *testing.T) {
	cases := []Summary{
		{N: 3, Mean: 1.5, P01: 0.1, P10: 0.25, P50: 1.75, P90: 2.5, P99: 2.75, P999: 2.875},
		{N: 0, Mean: 0, P01: math.NaN(), P10: math.NaN(), P50: math.NaN(), P90: math.NaN(), P99: math.NaN(), P999: math.NaN()},
		{N: 1, Mean: math.Inf(1), P01: math.Inf(-1), P50: 0.3},
	}
	same := func(a, b float64) bool {
		return a == b || (math.IsNaN(a) && math.IsNaN(b))
	}
	for i, in := range cases {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		var out Summary
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("case %d: unmarshal %s: %v", i, b, err)
		}
		if out.N != in.N || !same(out.Mean, in.Mean) || !same(out.P01, in.P01) ||
			!same(out.P10, in.P10) || !same(out.P50, in.P50) || !same(out.P90, in.P90) ||
			!same(out.P99, in.P99) || !same(out.P999, in.P999) {
			t.Fatalf("case %d: round trip changed the digest:\nin:  %+v\nout: %+v\nwire: %s", i, in, out, b)
		}
	}
}

// TestSummaryJSONFiniteValuesExact: finite values marshal as plain JSON
// numbers with shortest-round-trip formatting — bit-exact across the
// trip, and readable by any JSON consumer.
func TestSummaryJSONFiniteValuesExact(t *testing.T) {
	in := Summary{N: 2, Mean: 0.1 + 0.2, P50: 1e-17}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"Mean":"`) {
		t.Fatalf("finite value marshaled as a string: %s", b)
	}
	var out Summary
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Mean != in.Mean || out.P50 != in.P50 {
		t.Fatalf("finite round trip inexact: %v -> %v", in, out)
	}
}

// refSummary and refFloat are Summary's codec as it was before the
// direct one: a nested encoding/json pass over seven per-field
// marshalers. FuzzSummaryJSON holds the direct codec to them.
type refSummary struct {
	N    int      `json:"N"`
	Mean refFloat `json:"Mean"`
	P01  refFloat `json:"P01"`
	P10  refFloat `json:"P10"`
	P50  refFloat `json:"P50"`
	P90  refFloat `json:"P90"`
	P99  refFloat `json:"P99"`
	P999 refFloat `json:"P999"`
}

type refFloat float64

func (f refFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte(`"` + strconv.FormatFloat(v, 'g', -1, 64) + `"`), nil
	}
	return []byte(strconv.FormatFloat(v, 'g', -1, 64)), nil
}

func (f *refFloat) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' {
		var err error
		if s, err = strconv.Unquote(s); err != nil {
			return err
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("stats: parsing summary float %q: %w", s, err)
	}
	*f = refFloat(v)
	return nil
}

func refMarshal(s Summary) ([]byte, error) {
	return json.Marshal(refSummary{
		N: s.N, Mean: refFloat(s.Mean), P01: refFloat(s.P01),
		P10: refFloat(s.P10), P50: refFloat(s.P50), P90: refFloat(s.P90),
		P99: refFloat(s.P99), P999: refFloat(s.P999),
	})
}

func refUnmarshal(b []byte) (Summary, error) {
	var w refSummary
	if err := json.Unmarshal(b, &w); err != nil {
		return Summary{}, err
	}
	return Summary{
		N: w.N, Mean: float64(w.Mean), P01: float64(w.P01),
		P10: float64(w.P10), P50: float64(w.P50), P90: float64(w.P90),
		P99: float64(w.P99), P999: float64(w.P999),
	}, nil
}

// sameSummary compares two digests bit for bit, every NaN equal to every
// NaN.
func sameSummary(a, b Summary) bool {
	if a.N != b.N {
		return false
	}
	af, bf := a.summaryFloats(), b.summaryFloats()
	for i := range af {
		x, y := *af[i], *bf[i]
		if math.IsNaN(x) != math.IsNaN(y) || !math.IsNaN(x) && math.Float64bits(x) != math.Float64bits(y) {
			return false
		}
	}
	return true
}

// FuzzSummaryJSON holds Summary's direct codec to the reference above.
// Decoding any bytes, UnmarshalJSON and the reference agree on error or
// no error and, without error, on every value bit for bit. Encoding a
// digest built from raw bits (NaN, ±Inf, -0, subnormals included),
// MarshalJSON writes the reference's bytes, and they decode back to the
// same bits through the direct path. The committed corpus (testdata/fuzz/FuzzSummaryJSON) holds
// the canonical form, repeated keys (read by the direct path, the later
// value kept) and the spellings only the generic decode reads: reordered,
// spaced and lower-case keys, an unquoted Inf, a leading + or zeros.
func FuzzSummaryJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, n int64, mean, p01, p10, p50, p90, p99, p999 uint64) {
		var got Summary
		gotErr := got.UnmarshalJSON(data)
		want, wantErr := refUnmarshal(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decoding %q: error %v, reference error %v", data, gotErr, wantErr)
		}
		if gotErr == nil && !sameSummary(got, want) {
			t.Fatalf("decoding %q:\n got %+v\nwant %+v", data, got, want)
		}

		in := Summary{N: int(n)}
		for i, bits := range []uint64{mean, p01, p10, p50, p90, p99, p999} {
			*in.summaryFloats()[i] = math.Float64frombits(bits)
		}
		b, err := in.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refMarshal(in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, ref) {
			t.Fatalf("encoding %+v:\n got %s\nwant %s", in, b, ref)
		}
		// Everything the program writes takes the direct path back.
		back, ok := parseCanonicalSummary(b)
		if !ok || !sameSummary(back, in) {
			t.Fatalf("round trip of %s: %+v, direct decode %t", b, back, ok)
		}
	})
}
