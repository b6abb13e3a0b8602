package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestFloatMatchesMarshal: Float writes what json.Marshal writes for a
// float64 — the edge cases of its 'f'/'e' rule and random bit patterns —
// and fails where it fails, with its message.
func TestFloatMatchesMarshal(t *testing.T) {
	fs := []float64{
		0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999999999999e-7,
		9.999999999999999e20, 1e21, -1e21, 5e-324, math.MaxFloat64, 1e-300,
		123456789, 0.1, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	rng := rand.New(rand.NewSource(1))
	for range 20000 {
		fs = append(fs, math.Float64frombits(rng.Uint64()))
	}
	for _, f := range fs {
		want, wantErr := json.Marshal(f)
		e := Encoder{B: []byte("x")}
		e.Float(f)
		got, err := e.B[1:], e.Err()
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("Float(%v): error %v, json.Marshal error %v", f, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("Float(%v) = %s, json.Marshal %s", f, got, want)
		}
	}
}

// TestStringMatchesMarshal: String writes what json.Marshal writes,
// verbatim or escaped.
func TestStringMatchesMarshal(t *testing.T) {
	for _, s := range []string{
		"", "plain ASCII ~", "<tag>", "a&b", `"q"`, `\`, "\x00\x1f\x7f", "\u2028\u2029",
		"héllo", "\xff", "日本",
	} {
		want, _ := json.Marshal(s)
		e := Encoder{}
		e.String(s)
		if !bytes.Equal(e.B, want) {
			t.Fatalf("String(%q) = %s, json.Marshal %s", s, e.B, want)
		}
	}
}

// TestLayoutMatchesMarshalIndent: members, elements and empty containers
// nest as json.Marshal and json.MarshalIndent(v, "", "  ") lay them out.
func TestLayoutMatchesMarshalIndent(t *testing.T) {
	type inner struct {
		A []int          `json:"a"`
		B struct{}       `json:"b"`
		C []struct{}     `json:"c"`
		D map[string]int `json:"d"`
	}
	v := []inner{{A: []int{1, 2}, C: []struct{}{{}, {}}, D: map[string]int{}}, {A: []int{}}}
	write := func(e *Encoder) {
		e.Open('[')
		for _, x := range v {
			e.Elem()
			e.Open('{')
			e.Key("a")
			e.Open('[')
			for _, n := range x.A {
				e.Elem()
				e.Int(int64(n))
			}
			e.Close(']')
			e.Key("b")
			e.Open('{')
			e.Close('}')
			e.Key("c")
			if x.C == nil {
				e.B = append(e.B, "null"...)
			} else {
				e.Open('[')
				for range x.C {
					e.Elem()
					e.Open('{')
					e.Close('}')
				}
				e.Close(']')
			}
			e.Key("d")
			if x.D == nil {
				e.B = append(e.B, "null"...)
			} else {
				e.Open('{')
				e.Close('}')
			}
			e.Close('}')
		}
		e.Close(']')
	}
	for _, indent := range []bool{false, true} {
		want, _ := json.Marshal(v)
		if indent {
			want, _ = json.MarshalIndent(v, "", "  ")
		}
		e := Encoder{Indent: indent}
		write(&e)
		if !bytes.Equal(e.B, want) {
			t.Fatalf("indent %t:\n got %s\nwant %s", indent, e.B, want)
		}
	}
}

// TestReaderTakesWhatEncodingJSONReads: the values the reader takes are
// the values encoding/json reads from the same bytes, a repeated key's
// last value among them, and the reader refuses what it leaves to
// encoding/json: escapes, null, a fraction or an exponent where an
// integer is read, a number out of range.
func TestReaderTakesWhatEncodingJSONReads(t *testing.T) {
	type rec struct {
		S string  `json:"s"`
		N int64   `json:"n"`
		F float64 `json:"f"`
		B bool    `json:"b"`
	}
	read := func(b []byte) (r rec, ok bool) {
		p := NewReader(b)
		p.Expect('{')
		for n := 0; p.Next('}', n); n++ {
			switch string(p.Key()) {
			case "s":
				r.S = p.Str()
			case "n":
				r.N = p.Int(64)
			case "f":
				r.F = p.Float()
			case "b":
				r.B = p.Bool()
			default:
				p.Fail()
			}
		}
		return r, p.End()
	}
	for _, c := range []struct {
		in string
		ok bool
	}{
		{`{"s":"a b","n":-0,"f":-0,"b":true}`, true},
		{` { "f" : 1e-7 , "n" : 9223372036854775807 , "b":false } `, true},
		{`{}`, true},
		{`{"f":1E+2,"s":"<&>"}`, true},
		{`{"s":"\u0041"}`, false},
		{`{"s":null}`, false},
		{`{"n":1e2}`, false},
		{`{"n":1.0}`, false},
		{`{"n":9223372036854775808}`, false},
		{`{"f":1e400}`, false},
		{`{"b":tru}`, false},
		{`{"s":"a","s":"b"}`, true},
		{`{"S":"a"}`, false},
		{`{"x":1}`, false},
		{`{"n":01}`, false},
		{`{"n":1}{}`, false},
		{`{"s":"é"}`, false},
	} {
		got, ok := read([]byte(c.in))
		if ok != c.ok {
			t.Fatalf("%s: reader took it %t, want %t", c.in, ok, c.ok)
		}
		if !ok {
			continue
		}
		var want rec
		if err := json.Unmarshal([]byte(c.in), &want); err != nil {
			t.Fatalf("%s: the reader took what json.Unmarshal refuses: %v", c.in, err)
		}
		if got != want || math.Signbit(got.F) != math.Signbit(want.F) {
			t.Fatalf("%s: reader %+v, json.Unmarshal %+v", c.in, got, want)
		}
	}
}

// skipObject draws an object of the shapes Skip takes, in the forms an
// Encoder writes them: strings without escapes, integers, floats and
// booleans, and, with nested set, objects of those — the shape of a
// scenario spec, whose topology, pattern and flow size are objects.
func skipObject(rng *rand.Rand, e *Encoder, nested bool) {
	e.Open('{')
	for range rng.Intn(8) {
		e.Key([]string{"kind", "a", "flowSize", "x y", "<&>"}[rng.Intn(5)])
		switch rng.Intn(5) {
		case 0:
			e.String([]string{"", "SF", "a b=c|d/e", "~"}[rng.Intn(4)])
		case 1:
			e.Int(rng.Int63() - rng.Int63())
		case 2:
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				e.Float(f)
			} else {
				e.Float(rng.NormFloat64())
			}
		case 3:
			e.Bool(rng.Intn(2) == 0)
		default:
			if nested {
				skipObject(rng, e, false)
			} else {
				e.Int(0)
			}
		}
	}
	e.Close('}')
}

// TestSkipTakesOneObject: Skip consumes exactly one object of the spec's
// shape, compact or indented, and leaves what follows it; every
// truncation of one fails; and whatever it takes from a mutated object
// is valid JSON.
func TestSkipTakesOneObject(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	taken := 0
	for range 3000 {
		e := Encoder{Indent: rng.Intn(2) == 0}
		skipObject(rng, &e, true)
		if e.Err() != nil {
			t.Fatal(e.Err())
		}
		obj := e.B
		p := NewReader(append(obj[:len(obj):len(obj)], ` ,"next"`...))
		p.Skip()
		p.Expect(',')
		if p.Str() != "next" || !p.End() {
			t.Fatalf("Skip did not take exactly the object:\n%s", obj)
		}
		for k := range len(obj) {
			p := NewReader(obj[:k])
			if p.Skip(); p.End() {
				t.Fatalf("Skip took the truncation %q", obj[:k])
			}
		}
		m := bytes.Clone(obj)
		for range 1 + rng.Intn(3) {
			i := rng.Intn(len(m))
			switch rng.Intn(3) {
			case 0:
				const set = "{}[]\":,-.e0tn \\x"
				m[i] = set[rng.Intn(len(set))]
			case 1:
				m = append(m[:i], m[i+1:]...)
			default:
				m = append(m[:i], append([]byte{m[rng.Intn(len(m))]}, m[i:]...)...)
			}
			if len(m) == 0 {
				break
			}
		}
		p = NewReader(m)
		if p.Skip(); p.End() {
			taken++
			if !json.Valid(m) {
				t.Fatalf("Skip took invalid JSON %q", m)
			}
		}
	}
	if taken == 0 {
		t.Fatal("Skip took no mutated object: the mutations test nothing")
	}
}

// TestSkipRefuses: Skip takes an object of strings, numbers, booleans and
// objects of those, and nothing else.
func TestSkipRefuses(t *testing.T) {
	for _, c := range []struct {
		in string
		ok bool
	}{
		{`{}`, true},
		{` { "a" : { } } `, true},
		{`{"t":{"kind":"SF","param":3},"load":0.8,"mat":true,"x":false,"n":-0,"f":1E+2}`, true},
		{`{"a":{"b":-1.5e-7,"c":"<&>","d":{}}}`, false},
		{`{"a":[]}`, false},
		{`{"a":{"b":[1]}}`, false},
		{`{"a":null}`, false},
		{`{"a":{"b":null}}`, false},
		{`{"a":"\u0041"}`, false},
		{`{"a\n":1}`, false},
		{`{"a":"é"}`, false},
		{`{"a":{"b":{"c":1}}}`, false},
		{`[]`, false},
		{`null`, false},
		{`"a"`, false},
		{`1`, false},
		{`{"a":tru}`, false},
		{`{"a":01}`, false},
		{`{"a":1.}`, false},
		{`{"a":-}`, false},
		{`{"a":}`, false},
		{`{"a"}`, false},
		{`{"a":1,}`, false},
		{`{,}`, false},
		{`{"a":1`, false},
		{`{"a":{"b":1}`, false},
		{`{"a":1}}`, false},
	} {
		p := NewReader([]byte(c.in))
		p.Skip()
		if ok := p.End(); ok != c.ok {
			t.Fatalf("%s: Skip took it %t, want %t", c.in, ok, c.ok)
		}
		if c.ok && !json.Valid([]byte(c.in)) {
			t.Fatalf("%s: Skip took invalid JSON", c.in)
		}
	}
}
