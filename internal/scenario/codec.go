package scenario

import (
	"encoding/json"

	"repro/internal/wire"
)

// The durable runtime's hand codec. A cache entry, a journal line and the
// -json output of cmd/scenarios are CellResults in encoding/json's form;
// the writers below append exactly those bytes — one member per field, in
// field order, each omitempty member only when encoding/json writes it —
// and fail where json.Marshal fails, on a non-finite float outside a
// stats.Summary. The readers take what the writers write (and the same
// bytes with other whitespace or member order) and refuse everything
// else: Cache.Get and ReadJournal hand refused bytes to json.Unmarshal,
// which accepts or rejects them as it always has. The readers skip a
// result's spec undecoded (wire.Reader.Skip): both callers replace it.
// TestWriterMatchesMarshal holds the writers to encoding/json;
// FuzzCacheEntry and FuzzJournalRead hold the readers to json.Unmarshal,
// the spec taken as raw JSON.

// decodeJSON reads b into v: by hand (read) when b is in the form the
// matching writer writes, else with json.Unmarshal, whose answer, value or
// error, it gets.
func decodeJSON[T any](b []byte, read func([]byte) (T, bool), v *T) error {
	if r, ok := read(b); ok {
		*v = r
		return nil
	}
	return json.Unmarshal(b, v)
}

// writeJSON appends the topology's encoding/json form to e.
func (ts *Topology) writeJSON(e *wire.Encoder) {
	e.Open('{')
	e.Key("kind")
	e.String(ts.Kind)
	if ts.Class != "" {
		e.Key("class")
		e.String(ts.Class)
	}
	if ts.Param != 0 {
		e.Key("param")
		e.Int(int64(ts.Param))
	}
	if ts.Param2 != 0 {
		e.Key("param2")
		e.Int(int64(ts.Param2))
	}
	e.Close('}')
}

// ReadJSON reads a topology in its encoding/json form off p into ts, which
// is zero. Anything the reader refuses — an unknown key, a repeated one,
// null — fails p.
func (ts *Topology) ReadJSON(p *wire.Reader) {
	var seen uint32
	p.Expect('{')
	for n := 0; p.Next('}', n); n++ {
		switch string(p.Key()) {
		case "kind":
			p.Once(&seen, 1)
			ts.Kind = p.Str()
		case "class":
			p.Once(&seen, 2)
			ts.Class = p.Str()
		case "param":
			p.Once(&seen, 4)
			ts.Param = p.Atoi()
		case "param2":
			p.Once(&seen, 8)
			ts.Param2 = p.Atoi()
		default:
			p.Fail()
		}
	}
}

func (ps *Pattern) writeJSON(e *wire.Encoder) {
	e.Open('{')
	e.Key("kind")
	e.String(ps.Kind)
	if ps.Offset != 0 {
		e.Key("offset")
		e.Int(int64(ps.Offset))
	}
	if ps.K != 0 {
		e.Key("k")
		e.Int(int64(ps.K))
	}
	if ps.Intensity != 0 { // a NaN is written, and fails
		e.Key("intensity")
		e.Float(ps.Intensity)
	}
	if ps.Randomize {
		e.Key("randomize")
		e.Bool(true)
	}
	e.Close('}')
}

func (fs *FlowSize) writeJSON(e *wire.Encoder) {
	e.Open('{')
	if fs.Kind != "" {
		e.Key("kind")
		e.String(fs.Kind)
	}
	if fs.Bytes != 0 {
		e.Key("bytes")
		e.Int(fs.Bytes)
	}
	e.Close('}')
}

func (s *Spec) writeJSON(e *wire.Encoder) {
	e.Open('{')
	if s.Name != "" {
		e.Key("name")
		e.String(s.Name)
	}
	e.Key("topology")
	s.Topology.writeJSON(e)
	if s.Layers != 0 {
		e.Key("layers")
		e.Int(int64(s.Layers))
	}
	if s.Rho != 0 {
		e.Key("rho")
		e.Float(s.Rho)
	}
	if s.Construction != "" {
		e.Key("construction")
		e.String(s.Construction)
	}
	if s.Routing != "" {
		e.Key("routing")
		e.String(s.Routing)
	}
	if s.Transport != "" {
		e.Key("transport")
		e.String(s.Transport)
	}
	e.Key("pattern")
	s.Pattern.writeJSON(e)
	e.Key("flowSize") // a struct: encoding/json writes it even when zero
	s.FlowSize.writeJSON(e)
	if s.Load != 0 {
		e.Key("load")
		e.Float(s.Load)
	}
	if s.FailFrac != 0 {
		e.Key("failFrac")
		e.Float(s.FailFrac)
	}
	if s.Replicas != 0 {
		e.Key("replicas")
		e.Int(int64(s.Replicas))
	}
	if s.HorizonMs != 0 {
		e.Key("horizonMs")
		e.Float(s.HorizonMs)
	}
	if s.MAT {
		e.Key("mat")
		e.Bool(true)
	}
	e.Close('}')
}

// WriteJSON appends the result's encoding/json form to e: the bytes
// json.Marshal writes (json.MarshalIndent's, with e.Indent set). A NaN or
// an infinite float outside the two summaries sets e's error, as it makes
// json.Marshal fail.
func (r *CellResult) WriteJSON(e *wire.Encoder) {
	e.Open('{')
	e.Key("spec")
	r.Spec.writeJSON(e)
	e.Key("topoName")
	e.String(r.TopoName)
	e.Key("topoN")
	e.Int(int64(r.TopoN))
	e.Key("layers")
	e.Int(int64(r.Layers))
	e.Key("rho")
	e.Float(r.Rho)
	e.Key("flows")
	e.Int(int64(r.Flows))
	e.Key("completed")
	e.Float(r.Completed)
	e.Key("throughput")
	r.Throughput.WriteJSON(e)
	e.Key("fct")
	r.FCT.WriteJSON(e)
	e.Key("drops")
	e.Int(r.Drops)
	e.Key("trims")
	e.Int(r.Trims)
	if r.FailedLinks != 0 {
		e.Key("failedLinks")
		e.Int(int64(r.FailedLinks))
	}
	if r.MAT != 0 {
		e.Key("mat")
		e.Float(r.MAT)
	}
	e.Close('}')
}

func (r *CellResult) readJSON(p *wire.Reader) {
	var seen uint32
	p.Expect('{')
	for n := 0; p.Next('}', n); n++ {
		switch string(p.Key()) {
		case "spec":
			p.Once(&seen, 1<<0)
			p.Skip() // the caller's spec replaces the recorded one
		case "topoName":
			p.Once(&seen, 1<<1)
			r.TopoName = p.Str()
		case "topoN":
			p.Once(&seen, 1<<2)
			r.TopoN = p.Atoi()
		case "layers":
			p.Once(&seen, 1<<3)
			r.Layers = p.Atoi()
		case "rho":
			p.Once(&seen, 1<<4)
			r.Rho = p.Float()
		case "flows":
			p.Once(&seen, 1<<5)
			r.Flows = p.Atoi()
		case "completed":
			p.Once(&seen, 1<<6)
			r.Completed = p.Float()
		case "throughput":
			p.Once(&seen, 1<<7)
			r.Throughput.ReadJSON(p)
		case "fct":
			p.Once(&seen, 1<<8)
			r.FCT.ReadJSON(p)
		case "drops":
			p.Once(&seen, 1<<9)
			r.Drops = p.Int(64)
		case "trims":
			p.Once(&seen, 1<<10)
			r.Trims = p.Int(64)
		case "failedLinks":
			p.Once(&seen, 1<<11)
			r.FailedLinks = p.Atoi()
		case "mat":
			p.Once(&seen, 1<<12)
			r.MAT = p.Float()
		default:
			p.Fail()
		}
	}
}

// appendCacheEntry appends the entry's json.Marshal form to b.
func appendCacheEntry(b []byte, ce *cacheEntry) ([]byte, error) {
	e := wire.Encoder{B: b}
	e.Open('{')
	e.Key("fingerprint")
	e.String(ce.Fingerprint)
	e.Key("identity")
	e.String(ce.Identity)
	e.Key("result")
	ce.Result.WriteJSON(&e)
	e.Close('}')
	return e.B, e.Err()
}

// readCacheEntry reads an entry file's bytes by hand, false when they are
// not the form appendCacheEntry writes.
func readCacheEntry(b []byte) (ce cacheEntry, ok bool) {
	p := wire.NewReader(b)
	var seen uint32
	p.Expect('{')
	for n := 0; p.Next('}', n); n++ {
		switch string(p.Key()) {
		case "fingerprint":
			p.Once(&seen, 1)
			ce.Fingerprint = p.Str()
		case "identity":
			p.Once(&seen, 2)
			ce.Identity = p.Str()
		case "result":
			p.Once(&seen, 4)
			ce.Result.readJSON(p)
		default:
			p.Fail()
		}
	}
	if !p.End() {
		return cacheEntry{}, false
	}
	return ce, true
}

// appendHeader appends the header's json.Marshal form to b.
func appendHeader(b []byte, h *JournalHeader) []byte {
	e := wire.Encoder{B: b}
	e.Open('{')
	e.Key("type")
	e.String(h.Type)
	if h.Name != "" {
		e.Key("name")
		e.String(h.Name)
	}
	e.Key("seed")
	e.Int(h.Seed)
	e.Key("specHash")
	e.String(h.SpecHash)
	e.Key("fingerprint")
	e.String(h.Fingerprint)
	e.Key("cells")
	e.Int(int64(h.Cells))
	e.Close('}')
	return e.B
}

// readHeader reads a header line by hand, false when it is not the form
// appendHeader writes.
func readHeader(b []byte) (h JournalHeader, ok bool) {
	p := wire.NewReader(b)
	var seen uint32
	p.Expect('{')
	for n := 0; p.Next('}', n); n++ {
		switch string(p.Key()) {
		case "type":
			p.Once(&seen, 1)
			h.Type = p.Str()
		case "name":
			p.Once(&seen, 2)
			h.Name = p.Str()
		case "seed":
			p.Once(&seen, 4)
			h.Seed = p.Int(64)
		case "specHash":
			p.Once(&seen, 8)
			h.SpecHash = p.Str()
		case "fingerprint":
			p.Once(&seen, 16)
			h.Fingerprint = p.Str()
		case "cells":
			p.Once(&seen, 32)
			h.Cells = p.Atoi()
		default:
			p.Fail()
		}
	}
	if !p.End() {
		return JournalHeader{}, false
	}
	return h, true
}

// appendCellDone appends the record's json.Marshal form to b.
func appendCellDone(b []byte, cd *CellDone) ([]byte, error) {
	e := wire.Encoder{B: b}
	e.Open('{')
	e.Key("type")
	e.String(cd.Type)
	e.Key("identity")
	e.String(cd.Identity)
	e.Key("key")
	e.String(cd.Key)
	e.Key("result")
	cd.Result.WriteJSON(&e)
	e.Close('}')
	return e.B, e.Err()
}

// readCellDone reads a record line by hand, false when it is not the form
// appendCellDone writes.
func readCellDone(b []byte) (cd CellDone, ok bool) {
	p := wire.NewReader(b)
	var seen uint32
	p.Expect('{')
	for n := 0; p.Next('}', n); n++ {
		switch string(p.Key()) {
		case "type":
			p.Once(&seen, 1)
			cd.Type = p.Str()
		case "identity":
			p.Once(&seen, 2)
			cd.Identity = p.Str()
		case "key":
			p.Once(&seen, 4)
			cd.Key = p.Str()
		case "result":
			p.Once(&seen, 8)
			cd.Result.readJSON(p)
		default:
			p.Fail()
		}
	}
	if !p.End() {
		return CellDone{}, false
	}
	return cd, true
}
