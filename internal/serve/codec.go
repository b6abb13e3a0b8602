package serve

import (
	"repro/internal/wire"
)

// The /whatif body reader. Clients build a WhatifRequest and send what
// json.Marshal writes, so nearly every body arrives in one canonical form.
// readWhatif reads that form with the module's one token reader
// (wire.Reader), without reflection, a repeated key as encoding/json reads
// it, and refuses anything else:
// handleWhatif hands a refused body, byte for byte, to
// scenario.DecodeStrict, which accepts or rejects it as it always has.
// FuzzWhatifBody holds the two together: a body readWhatif accepts,
// DecodeStrict accepts too, with the same value.

// readWhatif reads body as a WhatifRequest, ok false unless the body is
// one object of known keys in exact case, none null and "queries" at most
// once, with nothing but whitespace after it.
func readWhatif(body []byte) (req WhatifRequest, ok bool) {
	p := wire.NewReader(body)
	p.Expect('{')
	for n := 0; p.Next('}', n); n++ {
		switch string(p.Key()) {
		case "fabric":
			readFabric(p, &req.Fabric)
		case "failedEdges":
			req.FailedEdges = readInts(p)
		case "queries":
			if req.Queries != nil {
				p.Fail() // encoding/json reads a second list over the first's elements
			}
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
	p.Expect('{')
	for n := 0; p.Next('}', n); n++ {
		switch string(p.Key()) {
		case "topology":
			fs.Topology.ReadJSON(p)
		case "layers":
			fs.Layers = p.Atoi()
		case "rho":
			fs.Rho = p.Float()
		case "construction":
			fs.Construction = p.Str()
		case "seed":
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
		p.Expect('{')
		for m := 0; p.Next('}', m); m++ {
			switch string(p.Key()) {
			case "layer":
				q.Layer = p.Atoi()
			case "src":
				q.Src = p.Atoi()
			case "dst":
				q.Dst = p.Atoi()
			default:
				p.Fail()
			}
		}
		qs = append(qs, q)
	}
	return append(make([]QueryTriple, 0, len(qs)), qs...)
}
