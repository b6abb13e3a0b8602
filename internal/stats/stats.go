// Package stats provides the summary statistics used throughout the
// evaluation harness: means, percentiles, histograms, and distribution
// summaries matching how the paper reports results (mean, 1% / 10% / 99% /
// 99.9% tails, fraction-of-pairs histograms).
package stats

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/wire"
)

// Sample accumulates float64 observations.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-quantile (p in [0,1]) by nearest-rank with
// linear interpolation. Percentile(0.5) is the median.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := p * float64(len(s.xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[len(s.xs)-1]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// Summary is the (mean, selected percentiles) digest the paper reports.
type Summary struct {
	N                                   int
	Mean, P01, P10, P50, P90, P99, P999 float64
}

// Summary's wire form is one canonical JSON object,
//
//	{"N":3,"Mean":1.5,"P01":"NaN","P10":0.25,"P50":1.75,"P90":"+Inf","P99":2.75,"P999":2.875}
//
// with the fields in this order, finite values as shortest-round-trip
// JSON numbers and non-finite ones as the quoted strings "NaN", "+Inf" and
// "-Inf". encoding/json rejects non-finite numbers outright, which would
// make any zero-completion cell (NaN percentiles) unserializable: CLI
// -json output, the scenario result cache, run journals. Both directions
// are bit-exact. WriteJSON writes the canonical form, compact or indented
// as the encoder is; ReadJSON reads it, and any spelling that differs from
// it only in whitespace, member order or a repeated key; UnmarshalJSON
// hands any other valid JSON spelling (case-folded keys, numbers in
// strings) to the generic decode through summaryJSON.

// summaryFloatKeys are the float fields' keys in wire order; summaryFloats
// lists the fields in the same order.
var summaryFloatKeys = [...]string{"Mean", "P01", "P10", "P50", "P90", "P99", "P999"}

func (s *Summary) summaryFloats() [len(summaryFloatKeys)]*float64 {
	return [...]*float64{&s.Mean, &s.P01, &s.P10, &s.P50, &s.P90, &s.P99, &s.P999}
}

// MarshalJSON renders the canonical wire form.
func (s Summary) MarshalJSON() ([]byte, error) {
	e := wire.Encoder{B: make([]byte, 0, 192)}
	s.WriteJSON(&e)
	return e.B, nil
}

// WriteJSON appends the canonical wire form to e. It never fails.
func (s Summary) WriteJSON(e *wire.Encoder) {
	e.Open('{')
	e.Key("N")
	e.Int(int64(s.N))
	for i, f := range s.summaryFloats() {
		e.Key(summaryFloatKeys[i])
		if v := *f; math.IsNaN(v) || math.IsInf(v, 0) {
			e.B = append(strconv.AppendFloat(append(e.B, '"'), v, 'g', -1, 64), '"')
		} else {
			e.B = strconv.AppendFloat(e.B, v, 'g', -1, 64)
		}
	}
	e.Close('}')
}

// UnmarshalJSON is the inverse of MarshalJSON, and reads any other JSON
// spelling of the same object as well.
func (s *Summary) UnmarshalJSON(b []byte) error {
	if v, ok := parseCanonicalSummary(b); ok {
		*s = v
		return nil
	}
	var w summaryJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*s = Summary{
		N: w.N, Mean: float64(w.Mean), P01: float64(w.P01),
		P10: float64(w.P10), P50: float64(w.P50), P90: float64(w.P90),
		P99: float64(w.P99), P999: float64(w.P999),
	}
	return nil
}

// parseCanonicalSummary reads b with ReadJSON. It reports false on
// anything ReadJSON refuses — including a number out of range — so that
// the generic decode's answer, value or error, stays the contract for
// every such input.
func parseCanonicalSummary(b []byte) (Summary, bool) {
	var s Summary
	p := wire.NewReader(b)
	s.ReadJSON(p)
	return s, p.End()
}

// ReadJSON reads a summary in its wire form off p into s: an object of the
// known keys in exact case, a float as a number or as one of the three
// quoted non-finite names. Anything else fails p. Like UnmarshalJSON, it
// replaces all of s, so a summary read twice keeps nothing of the first.
func (s *Summary) ReadJSON(p *wire.Reader) {
	*s = Summary{}
	floats := s.summaryFloats()
	p.Expect('{')
	for n := 0; p.Next('}', n); n++ {
		k := p.Key()
		if string(k) == "N" {
			s.N = p.Atoi()
			continue
		}
		i := 0
		for i < len(summaryFloatKeys) && string(k) != summaryFloatKeys[i] {
			i++
		}
		if i == len(summaryFloatKeys) {
			p.Fail()
			return
		}
		if !p.Quoted() {
			*floats[i] = p.Float()
			continue
		}
		switch string(p.Raw()) {
		case "NaN":
			*floats[i] = math.NaN()
		case "+Inf":
			*floats[i] = math.Inf(1)
		case "-Inf":
			*floats[i] = math.Inf(-1)
		default:
			p.Fail()
		}
	}
}

// summaryJSON is the generic decode of Summary's wire form: encoding/json
// matches the keys (in any order, case-insensitively) and jsonFloat reads
// each float, quoted or not.
type summaryJSON struct {
	N    int       `json:"N"`
	Mean jsonFloat `json:"Mean"`
	P01  jsonFloat `json:"P01"`
	P10  jsonFloat `json:"P10"`
	P50  jsonFloat `json:"P50"`
	P90  jsonFloat `json:"P90"`
	P99  jsonFloat `json:"P99"`
	P999 jsonFloat `json:"P999"`
}

// jsonFloat reads a plain JSON number or a quoted string such as "NaN",
// "+Inf" or "-Inf", bit-exactly.
type jsonFloat float64

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
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
	*f = jsonFloat(v)
	return nil
}

// Summarize produces the digest.
func (s *Sample) Summarize() Summary {
	return Summary{
		N:    len(s.xs),
		Mean: s.Mean(),
		P01:  s.Percentile(0.01),
		P10:  s.Percentile(0.10),
		P50:  s.Percentile(0.50),
		P90:  s.Percentile(0.90),
		P99:  s.Percentile(0.99),
		P999: s.Percentile(0.999),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p1=%.4g p10=%.4g p50=%.4g p90=%.4g p99=%.4g p99.9=%.4g",
		s.N, s.Mean, s.P01, s.P10, s.P50, s.P90, s.P99, s.P999)
}

// IntHistogram counts integer-valued observations.
type IntHistogram struct {
	Counts map[int]int64
	Total  int64
}

// NewIntHistogram returns an empty histogram.
func NewIntHistogram() *IntHistogram {
	return &IntHistogram{Counts: make(map[int]int64)}
}

// Add counts one observation of value v.
func (h *IntHistogram) Add(v int) { h.AddN(v, 1) }

// AddN counts n observations of value v.
func (h *IntHistogram) AddN(v int, n int64) {
	h.Counts[v] += n
	h.Total += n
}

// Fraction returns the share of observations with value v.
func (h *IntHistogram) Fraction(v int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[v]) / float64(h.Total)
}

// FractionAtLeast returns the share of observations with value >= v.
func (h *IntHistogram) FractionAtLeast(v int) float64 {
	if h.Total == 0 {
		return 0
	}
	var c int64
	//det:allow maprange -- an int64 sum is exact and commutative: c is the same in any order
	for val, n := range h.Counts {
		if val >= v {
			c += n
		}
	}
	return float64(c) / float64(h.Total)
}

// Keys returns the observed values in increasing order.
func (h *IntHistogram) Keys() []int {
	return slices.Sorted(maps.Keys(h.Counts))
}

// Mean returns the mean observed value.
func (h *IntHistogram) Mean() float64 {
	if h.Total == 0 {
		return 0
	}
	// Sum in key order: float accumulation in map-iteration order would
	// leave the mean's low bits nondeterministic across runs.
	var sum float64
	for _, v := range h.Keys() {
		sum += float64(v) * float64(h.Counts[v])
	}
	return sum / float64(h.Total)
}

func (h *IntHistogram) String() string {
	var b strings.Builder
	for _, k := range h.Keys() {
		fmt.Fprintf(&b, "%d:%d ", k, h.Counts[k])
	}
	return strings.TrimSpace(b.String())
}

// Table is a simple aligned text table used by the experiment harness to
// print the same rows/series the paper's figures plot.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRowf appends a row formatting each value with %v (floats with %.4g).
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
