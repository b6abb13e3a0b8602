package serve

import (
	"repro/internal/wire"
)

// The /whatif body reader. Clients build a WhatifRequest and send what
// json.Marshal writes, so nearly every body arrives in one canonical form.
// readWhatif reads that form with the module's one token reader
// (wire.Reader), without reflection, and refuses anything else:
// handleWhatif hands a refused body, byte for byte, to
// scenario.DecodeStrict, which accepts or rejects it as it always has.
// FuzzWhatifBody holds the two together: a body readWhatif accepts,
// DecodeStrict accepts too, with the same value.

// readWhatif reads body as a WhatifRequest, ok false unless the body is
// one object of known keys in exact case, none twice and none null, with
// nothing but whitespace after it.
func readWhatif(body []byte) (req WhatifRequest, ok bool) {
	p := wire.NewReader(body)
	var seen uint32
	p.Expect('{')
	for n := 0; p.Next('}', n); n++ {
		switch string(p.Key()) {
		case "fabric":
			p.Once(&seen, 1)
			readFabric(p, &req.Fabric)
		case "failedEdges":
			p.Once(&seen, 2)
			req.FailedEdges = readInts(p)
		case "queries":
			p.Once(&seen, 4)
			req.Queries = readQueries(p)
		default:
			p.Fail()
		}
	}
	if !p.End() {
		return WhatifRequest{}, false
	}
	return req, true
}

func readFabric(p *wire.Reader, fs *FabricSelector) {
	var seen uint32
	p.Expect('{')
	for n := 0; p.Next('}', n); n++ {
		switch string(p.Key()) {
		case "topology":
			p.Once(&seen, 1)
			fs.Topology.ReadJSON(p)
		case "layers":
			p.Once(&seen, 2)
			fs.Layers = p.Atoi()
		case "rho":
			p.Once(&seen, 4)
			fs.Rho = p.Float()
		case "construction":
			p.Once(&seen, 8)
			fs.Construction = p.Str()
		case "seed":
			p.Once(&seen, 16)
			fs.Seed = p.Int(64)
		default:
			p.Fail()
		}
	}
}

// readInts reads an array of integers into a slice of its length: [] is an
// empty, non-nil slice, as encoding/json decodes it.
func readInts(p *wire.Reader) []int {
	var buf [32]int
	xs := buf[:0]
	p.Expect('[')
	for n := 0; p.Next(']', n); n++ {
		xs = append(xs, p.Atoi())
	}
	return append(make([]int, 0, len(xs)), xs...)
}

// readQueries reads an array of (layer, src, dst) objects, sized as
// readInts sizes its slice.
func readQueries(p *wire.Reader) []QueryTriple {
	var buf [16]QueryTriple
	qs := buf[:0]
	p.Expect('[')
	for n := 0; p.Next(']', n); n++ {
		var q QueryTriple
		var seen uint32
		p.Expect('{')
		for m := 0; p.Next('}', m); m++ {
			switch string(p.Key()) {
			case "layer":
				p.Once(&seen, 1)
				q.Layer = p.Atoi()
			case "src":
				p.Once(&seen, 2)
				q.Src = p.Atoi()
			case "dst":
				p.Once(&seen, 4)
				q.Dst = p.Atoi()
			default:
				p.Fail()
			}
		}
		qs = append(qs, q)
	}
	return append(make([]QueryTriple, 0, len(qs)), qs...)
}
