// Corpus for the syncpool analyzer: sync.Pool is banned in
// internal/netsim (each engine's arena owns packet recycling).
package netsim

import "sync"

var packetPool sync.Pool // want `sync.Pool in internal/netsim`

func get() any {
	return packetPool.Get()
}

// Other sync primitives are unrestricted.
var mu sync.Mutex

// A documented exception parses like any other suppression.
//
//det:allow syncpool -- corpus: demonstrating a sanctioned exception
var legacyPool sync.Pool
