package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// FuzzGetQuery holds parseGetQuery to the code it replaced: url.ParseQuery,
// Values.Get on each accepted key, and rejection of an unknown key — the
// first one in query order, found by parsing each '&'-separated pair on
// its own with url.ParseQuery.
func FuzzGetQuery(f *testing.F) {
	for _, seed := range []string{
		testFabricQ + "&layer=1&src=3&dst=17",
		"topo=SF&foo=1&bar=2",
		"to%70o=S%46&src=1+2&dst=%2B3",
		"topo=SF;x=1&src=1",
		"src=%zz&src=4&topo=%",
		"=x&topo=SF",
		"topo=&topo=SF",
		"&&topo=SF&&layer",
		"topo=SF&src=1&src=2&bogus%3D=1",
		"topo=a=b&class",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		got, err := parseGetQuery(raw)
		for _, pair := range strings.Split(raw, "&") {
			vals, _ := url.ParseQuery(pair) // one key at most: pair holds no '&'
			for _, k := range slices.Sorted(maps.Keys(vals)) {
				if slices.Contains(queryKeys[:], k) {
					continue
				}
				want := fmt.Sprintf("unknown query parameter %q", k)
				if err == nil || err.Error() != want {
					t.Fatalf("parseGetQuery(%q): error %v, want %q", raw, err, want)
				}
				return
			}
		}
		if err != nil {
			t.Fatalf("parseGetQuery(%q): %v, want no error", raw, err)
		}
		vals, _ := url.ParseQuery(raw)
		for k, key := range queryKeys {
			if got[k] != vals.Get(key) {
				t.Fatalf("parseGetQuery(%q)[%s] = %q, url.ParseQuery says %q", raw, key, got[k], vals.Get(key))
			}
		}
	})
}

// TestAnswerEncodersMatchEncodingJSON: the hand-written appendJSON of
// each GET and /whatif answer produces exactly the bytes json.Marshal
// does, over random values — negative next/dist, nil and empty candidate
// lists, absent and empty paths, nil and empty layer and answer lists.
func TestAnswerEncodersMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	anInt := func() int {
		switch rng.Intn(8) {
		case 0:
			return math.MinInt
		case 1:
			return math.MaxInt
		case 2:
			return -1
		case 3:
			return 0
		}
		return rng.Intn(2000) - 1000
	}
	anInt32 := func() int32 {
		switch rng.Intn(6) {
		case 0:
			return math.MinInt32
		case 1:
			return math.MaxInt32
		case 2:
			return -1
		}
		return int32(rng.Intn(200))
	}
	// list returns nil, an empty slice, or up to six random elements.
	list := func(elem func() int32) []int32 {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []int32{}
		}
		xs := make([]int32, 1+rng.Intn(6))
		for i := range xs {
			xs[i] = elem()
		}
		return xs
	}
	hop := func() HopAnswer {
		return HopAnswer{Layer: anInt(), Src: anInt(), Dst: anInt(), Next: anInt32(), Dist: anInt32(), Candidates: list(anInt32)}
	}
	check := func(v interface{ appendJSON([]byte) []byte }) {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("x")
		if got := v.appendJSON(prefix); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("appendJSON of %+v:\n  got  %s\n  want x%s", v, got, want)
		}
	}
	for i := 0; i < 500; i++ {
		h := hop()
		check(&h)

		p := PathsAnswer{Src: anInt(), Dst: anInt(), DistinctPaths: anInt()}
		if n := rng.Intn(5); n > 0 {
			p.Layers = make([]LayerPath, n-1)
			for j := range p.Layers {
				p.Layers[j] = LayerPath{Layer: anInt(), Len: anInt(), Path: list(anInt32), Candidates: anInt()}
			}
		}
		check(&p)

		w := WhatifAnswer{SharedTables: anInt(), InvalidatedTables: anInt()}
		if n := rng.Intn(5); n > 0 {
			w.FailedEdges = make([]int, n-1)
			for j := range w.FailedEdges {
				w.FailedEdges[j] = anInt()
			}
		}
		if n := rng.Intn(5); n > 0 {
			w.Answers = make([]HopAnswer, n-1)
			for j := range w.Answers {
				w.Answers[j] = hop()
			}
		}
		check(&w)
	}
}

// FuzzWhatifBody holds readWhatif to the decoder it stands in front of: a
// body it accepts, scenario.DecodeStrict accepts too and decodes to a
// reflect.DeepEqual request. What it refuses goes to DecodeStrict, so the
// daemon answers any body as DecodeStrict alone did.
func FuzzWhatifBody(f *testing.F) {
	for _, seed := range []string{
		testWhatifBody,
		`{"fabric":{"topology":{"kind":"SF","param":11},"seed":42},"failedEdges":[118,640],"queries":[{"layer":3,"src":9,"dst":200}]}`,
		`{"fabric":{"topology":{"kind":"S\u0046","class":"sm\u00e9ll"},"construction":"r\nandom"},"queries":[]}`,
		`{"Fabric":{"topology":{"kind":"SF","param":5}},"failedEdges":[1]}`,
		`{"fabric":{"topology":{"kind":"SF","param":5}},"failedEdges":null,"queries":[null]}`,
		`{"fabric":{"topology":{"kind":"SF","param":5},"layers":2,"layers":3},"failedEdges":[1],"failedEdges":[2]}`,
		`{"fabric":{"topology":{"kind":"SF","param":5}},"queries":[{"layer":1,"src":2,"dst":3},{"layer":4,"src":5,"dst":6}],"queries":[{"src":7}]}`,
		`{"fabric":{"topology":{"kind":"SF","param":1e2},"layers":-0,"rho":-0},"failedEdges":[-0,1E0]}`,
		`{"fabric":{"topology":{"kind":"SF","param":01}},"failedEdges":[01]}`,
		`{"fabric":{"topology":{"kind":"SF","param":5}}}{}`,
		` { "fabric" : { "topology" : { "kind" : "SF" } , "rho" : 7e-1 } , "failedEdges" : [ ] } ` + "\n",
		`{"fabric":{"topology":{"kind":"SF","param":9223372036854775808},"seed":-9223372036854775808}}`,
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := readWhatif(body)
		if !ok {
			return
		}
		var want WhatifRequest
		if err := scenario.DecodeStrict(bytes.NewReader(body), &want); err != nil {
			t.Fatalf("readWhatif accepts %q, DecodeStrict says %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q:\n  readWhatif   %#v\n  DecodeStrict %#v", body, got, want)
		}
	})
}

// TestReadWhatifTakesMarshal: what a client's json.Marshal writes for a
// request with its lists present, the hand reader reads, to the request
// marshalled — so the daemon's common body never reaches DecodeStrict.
func TestReadWhatifTakesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	word := func() string {
		return []string{"", "SF", "FT3", "medium", "random", "min-interference"}[rng.Intn(6)]
	}
	num := func() int { return []int{0, -1, 7, math.MaxInt, math.MinInt}[rng.Intn(5)] }
	for i := 0; i < 500; i++ {
		req := WhatifRequest{
			Fabric: FabricSelector{
				Topology:     scenario.Topology{Kind: word(), Class: word(), Param: num(), Param2: num()},
				Layers:       num(),
				Rho:          []float64{0, 0.7, -1.5e-300, math.MaxFloat64, 1e21}[rng.Intn(5)],
				Construction: word(),
				Seed:         int64(num()),
			},
			FailedEdges: make([]int, rng.Intn(40)),
			Queries:     make([]QueryTriple, rng.Intn(20)),
		}
		for j := range req.FailedEdges {
			req.FailedEdges[j] = num()
		}
		for j := range req.Queries {
			req.Queries[j] = QueryTriple{Layer: num(), Src: num(), Dst: num()}
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := readWhatif(body)
		if !ok || !reflect.DeepEqual(got, req) {
			t.Fatalf("readWhatif(%s) = %#v, %v; want the request marshalled", body, got, ok)
		}
	}
}
