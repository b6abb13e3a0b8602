package serve

import (
	"strconv"

	"repro/internal/scenario"
)

// The /whatif body reader. Clients build a WhatifRequest and send what
// json.Marshal writes, so nearly every body arrives in one canonical form.
// readWhatif reads that form without reflection and refuses anything else:
// handleWhatif hands a refused body, byte for byte, to
// scenario.DecodeStrict, which accepts or rejects it as it always has.
// FuzzWhatifBody holds the two together: a body readWhatif accepts,
// DecodeStrict accepts too, with the same value.

// jsonReader reads a subset of JSON off b: objects, arrays, strings of
// printable ASCII without escapes, and numbers, with whitespace between
// tokens. bad is sticky: a read that fails sets it, every later read
// fails, and the caller looks at it once, at the end.
type jsonReader struct {
	b   []byte
	i   int
	bad bool
}

// readWhatif reads body as a WhatifRequest, ok false unless the body is
// one object of known keys in exact case, none twice and none null, with
// nothing but whitespace after it.
func readWhatif(body []byte) (req WhatifRequest, ok bool) {
	p := jsonReader{b: body}
	var seen uint8
	p.expect('{')
	for n := 0; p.next('}', n); n++ {
		switch string(p.key()) {
		case "fabric":
			p.once(&seen, 1)
			p.fabric(&req.Fabric)
		case "failedEdges":
			p.once(&seen, 2)
			req.FailedEdges = p.ints()
		case "queries":
			p.once(&seen, 4)
			req.Queries = p.queries()
		default:
			p.bad = true
		}
	}
	if p.ws(); p.bad || p.i != len(p.b) {
		return WhatifRequest{}, false
	}
	return req, true
}

func (p *jsonReader) fabric(fs *FabricSelector) {
	var seen uint8
	p.expect('{')
	for n := 0; p.next('}', n); n++ {
		switch string(p.key()) {
		case "topology":
			p.once(&seen, 1)
			p.topology(&fs.Topology)
		case "layers":
			p.once(&seen, 2)
			fs.Layers = p.atoi()
		case "rho":
			p.once(&seen, 4)
			fs.Rho = p.atof()
		case "construction":
			p.once(&seen, 8)
			fs.Construction = p.str()
		case "seed":
			p.once(&seen, 16)
			fs.Seed = p.integer(64)
		default:
			p.bad = true
		}
	}
}

func (p *jsonReader) topology(t *scenario.Topology) {
	var seen uint8
	p.expect('{')
	for n := 0; p.next('}', n); n++ {
		switch string(p.key()) {
		case "kind":
			p.once(&seen, 1)
			t.Kind = p.str()
		case "class":
			p.once(&seen, 2)
			t.Class = p.str()
		case "param":
			p.once(&seen, 4)
			t.Param = p.atoi()
		case "param2":
			p.once(&seen, 8)
			t.Param2 = p.atoi()
		default:
			p.bad = true
		}
	}
}

// ints reads an array of integers into a slice of its length: [] is an
// empty, non-nil slice, as encoding/json decodes it.
func (p *jsonReader) ints() []int {
	var buf [32]int
	xs := buf[:0]
	p.expect('[')
	for n := 0; p.next(']', n); n++ {
		xs = append(xs, p.atoi())
	}
	return append(make([]int, 0, len(xs)), xs...)
}

// queries reads an array of (layer, src, dst) objects, sized as ints is.
func (p *jsonReader) queries() []QueryTriple {
	var buf [16]QueryTriple
	qs := buf[:0]
	p.expect('[')
	for n := 0; p.next(']', n); n++ {
		var q QueryTriple
		var seen uint8
		p.expect('{')
		for m := 0; p.next('}', m); m++ {
			switch string(p.key()) {
			case "layer":
				p.once(&seen, 1)
				q.Layer = p.atoi()
			case "src":
				p.once(&seen, 2)
				q.Src = p.atoi()
			case "dst":
				p.once(&seen, 4)
				q.Dst = p.atoi()
			default:
				p.bad = true
			}
		}
		qs = append(qs, q)
	}
	return append(make([]QueryTriple, 0, len(qs)), qs...)
}

// once marks key bit of an object read, failing on its second appearance.
func (p *jsonReader) once(seen *uint8, bit uint8) {
	if *seen&bit != 0 {
		p.bad = true
	}
	*seen |= bit
}

func (p *jsonReader) ws() {
	for p.i < len(p.b) && p.b[p.i] <= ' ' {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// expect reads the byte c.
func (p *jsonReader) expect(c byte) {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return
	}
	p.bad = true
}

// next reports whether the object or array whose opening byte has been
// read, and whose first n elements, holds another element. It reads the
// ',' before every element but the first, or the closing byte.
func (p *jsonReader) next(closing byte, n int) bool {
	p.ws()
	if p.bad {
		return false
	}
	if p.i < len(p.b) && p.b[p.i] == closing {
		p.i++
		return false
	}
	if n > 0 {
		p.expect(',')
	}
	return !p.bad
}

// key reads an object key and the ':' after it.
func (p *jsonReader) key() []byte {
	k := p.raw()
	p.expect(':')
	return k
}

func (p *jsonReader) str() string { return string(p.raw()) }

// raw reads a string of printable ASCII without escapes and returns its
// bytes, which alias b.
func (p *jsonReader) raw() []byte {
	p.expect('"')
	if p.bad {
		return nil
	}
	b, start := p.b, p.i
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			p.i = i + 1
			return b[start:i]
		case c < ' ' || c == '\\' || c > '~':
			p.bad = true
			return nil
		}
	}
	p.bad = true
	return nil
}

// number reads a JSON number and returns its text; integral reports that
// it has neither fraction nor exponent.
func (p *jsonReader) number() (text []byte, integral bool) {
	p.ws()
	start := p.i
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	switch {
	case p.i < len(p.b) && p.b[p.i] == '0':
		p.i++
	case p.digits() == 0:
		p.bad = true
		return nil, false
	}
	integral = true
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i, integral = p.i+1, false
		if p.digits() == 0 {
			p.bad = true
		}
	}
	if p.i < len(p.b) && p.b[p.i]|0x20 == 'e' {
		p.i, integral = p.i+1, false
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if p.digits() == 0 {
			p.bad = true
		}
	}
	return p.b[start:p.i], integral
}

// digits reads a run of decimal digits and returns its length.
func (p *jsonReader) digits() int {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

func (p *jsonReader) atoi() int { return int(p.integer(strconv.IntSize)) }

// integer reads an integer that fits in bitSize bits, as encoding/json
// reads one into a Go integer of that size.
func (p *jsonReader) integer(bitSize int) int64 {
	text, integral := p.number()
	if p.bad || !integral {
		p.bad = true
		return 0
	}
	n, err := strconv.ParseInt(string(text), 10, bitSize)
	if err != nil {
		p.bad = true
	}
	return n
}

// atof reads a number as encoding/json reads one into a float64.
func (p *jsonReader) atof() float64 {
	text, _ := p.number()
	if p.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		p.bad = true
	}
	return f
}
