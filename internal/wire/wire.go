// Package wire writes and reads JSON by hand, in the forms encoding/json
// writes, for the paths that would otherwise spend most of their time in
// its reflection: the durable sweep runtime's cache entries and journal
// lines, cmd/scenarios' -json output, stats.Summary, and the daemon's
// /whatif body.
//
// An Encoder appends exactly the bytes json.Marshal (or, indented,
// json.MarshalIndent(v, "", "  ")) writes for the values its callers hand
// it, and fails where they fail: on a NaN or an infinite float. A Reader
// reads a subset of JSON — objects, arrays, strings of printable ASCII
// without escapes, numbers, true and false — and refuses everything else,
// so its callers hand any other bytes to encoding/json and keep its answer,
// value or error; Skip steps over, undecoded, an object the caller throws
// away. Each caller holds its pair to encoding/json with an oracle test or
// a fuzz target.
package wire

import (
	"encoding/json"
	"math"
	"strconv"
)

// Encoder appends JSON to B: compact, as json.Marshal writes it, or, with
// Indent set, as json.MarshalIndent(v, "", "  ") does. Callers write a
// value as its encoding/json form would be written, member by member;
// Err reports the first value encoding/json would have refused.
type Encoder struct {
	B      []byte
	Indent bool
	err    error
	depth  int  // objects and arrays open
	empty  bool // the object or array opened last has no member yet
}

// Err returns the error json.Marshal would return for what was written,
// nil when it would succeed.
func (e *Encoder) Err() error { return e.err }

// Open begins an object ('{') or an array ('[').
func (e *Encoder) Open(c byte) {
	e.B = append(e.B, c)
	e.depth++
	e.empty = true
}

// Close ends the object ('}') or array (']') opened last. An empty one
// stays on its line, as json.Indent leaves it.
func (e *Encoder) Close(c byte) {
	e.depth--
	if !e.empty {
		e.newline()
	}
	e.B = append(e.B, c)
	e.empty = false
}

// Key begins an object member: the separator and the quoted key. A key is
// a Go field's tag name, which encoding/json writes verbatim.
func (e *Encoder) Key(k string) {
	e.Elem()
	e.B = append(append(append(e.B, '"'), k...), '"', ':')
	if e.Indent {
		e.B = append(e.B, ' ')
	}
}

// Elem begins an array element.
func (e *Encoder) Elem() {
	if !e.empty {
		e.B = append(e.B, ',')
	}
	e.empty = false
	e.newline()
}

func (e *Encoder) newline() {
	if !e.Indent {
		return
	}
	e.B = append(e.B, '\n')
	for range e.depth {
		e.B = append(e.B, ' ', ' ')
	}
}

// Int appends an integer.
func (e *Encoder) Int(n int64) { e.B = strconv.AppendInt(e.B, n, 10) }

// Bool appends true or false.
func (e *Encoder) Bool(v bool) { e.B = strconv.AppendBool(e.B, v) }

// String appends s quoted. A string of printable ASCII without '"', '\',
// '<', '>' or '&' is what encoding/json writes between the quotes; any
// other goes through encoding/json, which escapes it.
func (e *Encoder) String(s string) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < ' ' || c > '~', c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) // a string never fails to encode
			e.B = append(e.B, q...)
			return
		}
	}
	e.B = append(append(append(e.B, '"'), s...), '"')
}

// Float appends f as encoding/json writes a float64: the shortest form
// that reads back as f, in 'f' form inside [1e-6, 1e21) and in 'e' form
// outside it, with the exponent's leading zero dropped (1e-07 → 1e-7).
// A NaN or an infinity appends nothing and sets Err, with the message
// json.Marshal gives.
func (e *Encoder) Float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.B, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	e.B = b
}
