package layers

import "repro/internal/topo"

// Forwarding-state sizing analysis (§V-D/E of the paper): layers deploy as
// VLAN tags or address-space partitions, and forwarding functions compile
// to lookup tables. With flat exact matching every endpoint needs an entry
// (O(N) per router per layer); because all endpoints of a router share the
// routes toward that router, prefix matching on the router part of the
// address reduces this to O(N_r) — e.g. an SF with N = 10,830 endpoints
// needs only N_r = 722 prefix entries. VLAN deployments are limited to
// 4096 tags by the 802.1Q field.

// VLANLimit is the 12-bit 802.1Q VLAN ID space.
const VLANLimit = 4096

// TableSizing reports per-router forwarding state for a deployed layer set.
type TableSizing struct {
	Layers int
	// FlatEntries is per-router entries with flat exact-match tables:
	// one per endpoint per layer (O(N·n)).
	FlatEntries int
	// PrefixEntries is per-router entries with semi-hierarchical
	// prefix matching: one per destination router per layer (O(N_r·n)).
	PrefixEntries int
	// Compression is FlatEntries / PrefixEntries.
	Compression float64
	// FitsVLANs reports whether the layer count fits the 802.1Q tag space
	// (trivially true for FatPaths' O(1) layers; SPAIN-style per-
	// destination trees can exceed it on large networks).
	FitsVLANs bool
}

// SizeTables computes table sizing for a topology and layer count.
func SizeTables(t *topo.Topology, numLayers int) TableSizing {
	flat := t.N() * numLayers
	prefix := t.Nr() * numLayers
	comp := 0.0
	if prefix > 0 {
		comp = float64(flat) / float64(prefix)
	}
	return TableSizing{
		Layers:        numLayers,
		FlatEntries:   flat,
		PrefixEntries: prefix,
		Compression:   comp,
		FitsVLANs:     numLayers <= VLANLimit,
	}
}
