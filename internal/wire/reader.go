package wire

import "strconv"

// Reader reads a subset of JSON off a byte slice: objects, arrays, strings
// of printable ASCII without escapes, numbers, true and false, with
// whitespace between tokens. Every value it returns is the value
// encoding/json reads from the same bytes into a Go value of the type the
// caller asks for (Skip returns none). Failure is sticky: a read that fails marks the reader
// bad, every later read fails, and the caller looks once, at the end
// (End).
//
// An object is read member by member:
//
//	var seen uint32
//	p.Expect('{')
//	for n := 0; p.Next('}', n); n++ {
//		switch string(p.Key()) {
//		case "a":
//			p.Once(&seen, 1)
//			v.A = p.Int(64)
//		default:
//			p.Fail() // a key the type does not have
//		}
//	}
type Reader struct {
	b   []byte
	i   int
	bad bool
}

// NewReader returns a reader at the start of b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// End reports whether every read succeeded and nothing but whitespace
// follows the last one.
func (p *Reader) End() bool {
	p.ws()
	return !p.bad && p.i == len(p.b)
}

// Fail marks the reader bad.
func (p *Reader) Fail() { p.bad = true }

// Once marks the object key with bit read, failing on its second
// appearance: encoding/json lets a repeated key's value overwrite, or
// merge into, the first, which no hand reader repeats.
func (p *Reader) Once(seen *uint32, bit uint32) {
	if *seen&bit != 0 {
		p.bad = true
	}
	*seen |= bit
}

func (p *Reader) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// Expect reads the byte c.
func (p *Reader) Expect(c byte) {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return
	}
	p.bad = true
}

// Next reports whether the object or array whose opening byte has been
// read, and whose first n members, holds another member. It reads the ','
// before every member but the first, or the closing byte.
func (p *Reader) Next(closing byte, n int) bool {
	p.ws()
	if p.bad {
		return false
	}
	if p.i < len(p.b) && p.b[p.i] == closing {
		p.i++
		return false
	}
	if n > 0 {
		p.Expect(',')
	}
	return !p.bad
}

// Key reads an object key and the ':' after it. The bytes alias the input.
func (p *Reader) Key() []byte {
	k := p.Raw()
	p.Expect(':')
	return k
}

// Quoted reports whether the next value is a string.
func (p *Reader) Quoted() bool {
	p.ws()
	return p.i < len(p.b) && p.b[p.i] == '"'
}

// Str reads a string.
func (p *Reader) Str() string { return string(p.Raw()) }

// Raw reads a string of printable ASCII without escapes and returns its
// bytes, which alias the input.
func (p *Reader) Raw() []byte {
	p.Expect('"')
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

// Skip reads an object and discards it. Its members may be strings,
// numbers, true, false or objects of those, as deep as a scenario spec
// nests; an array, null, an escape or a deeper object fails. What it takes
// is valid JSON, though not always a value of the type written there.
func (p *Reader) Skip() { p.skip(2) }

func (p *Reader) skip(depth int) {
	p.Expect('{')
	for n := 0; p.Next('}', n); n++ {
		p.Key()
		var c byte
		if p.ws(); p.i < len(p.b) {
			c = p.b[p.i]
		}
		switch {
		case c == '"':
			p.Raw()
		case c == '{' && depth > 1:
			p.skip(depth - 1)
		case c == 't' || c == 'f':
			p.Bool()
		default:
			p.number()
		}
	}
}

// Bool reads true or false.
func (p *Reader) Bool() bool {
	p.ws()
	for _, lit := range [...]string{"false", "true"} {
		if len(p.b)-p.i >= len(lit) && string(p.b[p.i:p.i+len(lit)]) == lit {
			p.i += len(lit)
			return lit == "true"
		}
	}
	p.bad = true
	return false
}

// number reads a JSON number and returns its text; integral reports that
// it has neither fraction nor exponent.
func (p *Reader) number() (text []byte, integral bool) {
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
func (p *Reader) digits() int {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// Atoi reads an integer into an int.
func (p *Reader) Atoi() int { return int(p.Int(strconv.IntSize)) }

// Int reads an integer that fits in bitSize bits, as encoding/json reads
// one into a Go integer of that size: a fraction or an exponent fails.
func (p *Reader) Int(bitSize int) int64 {
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

// Float reads a number as encoding/json reads one into a float64: one out
// of range fails.
func (p *Reader) Float() float64 {
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
