package netsim

import "repro/internal/routing"

// Route lookup lives in internal/routing (routing.Engine):
// per-(layer, destination) multi-next-hop tables of neighbour-position
// masks, built lazily without locks and shared by every
// simulation of one fabric — including simulations running concurrently
// on different worker goroutines. This file keeps only the simulator-side
// selection: hashing a packet onto one of the ECMP candidates.

// hashNext picks one of the count > 0 candidate next hops by flow hash
// (flow-based ECMP with the Fowler–Noll–Vo hash, §VII-A6) at router r and
// returns its position in r's neighbour list. The flowlet salt changes
// the hash when the sender opens a new flowlet, and the layer is folded in
// so the same flow maps independently within each layer.
func hashNext(hops routing.Hops, count, r int, p *Packet) int {
	if count == 1 {
		return hops.Pos(0)
	}
	return hops.Pos(int(flowHash(p.FlowID, p.Salt, r, p.Kind, p.Layer) % uint32(count)))
}

// flowHash is 32-bit FNV-1a over the 14-byte tuple (FlowID, Salt, r as
// little-endian 32-bit words, then Kind, Layer), inlined: hash/fnv costs an
// interface call per router hop. Bit-identical to hash/fnv by test — every
// golden depends on it.
func flowHash(flowID int32, salt uint32, r int, kind PktKind, layer int8) uint32 {
	const prime = 16777619
	h := uint32(2166136261)
	for _, w := range [3]uint32{uint32(flowID), salt, uint32(r)} {
		h = (h ^ (w & 0xff)) * prime
		h = (h ^ (w >> 8 & 0xff)) * prime
		h = (h ^ (w >> 16 & 0xff)) * prime
		h = (h ^ (w >> 24)) * prime
	}
	h = (h ^ uint32(kind)) * prime
	h = (h ^ uint32(uint8(layer))) * prime
	return h
}
