package netsim

import "math/rand"

// Fault tolerance (§V-G of the paper): FatPaths preprovisions multiple
// paths within different layers, so when a link fails the flowlet load
// balancer simply stops using layers whose paths die — the purified
// transport's trims/timeouts (or TCP's RTO) force a flowlet boundary and
// the sender re-randomizes onto a surviving layer. That is the only half of
// §V-G the simulator runs: links fail at t = 0 and routing never hears of
// it, so the routes keep offering the dead links. The other half, routes
// recomputed incrementally per destination after a major topology update,
// is routing.Engine.WithoutEdges, which only the daemon's /whatif calls.
//
// A failed link drops every packet handed to it (both directions), exactly
// like a dead cable between two healthy routers.

// FailRandomLinks fails count distinct router-router links chosen u.a.r.
// and returns their edge IDs. Edge e's two directions are links 2e and
// 2e+1, the ids of its arcs.
func (n *Network) FailRandomLinks(count int, rng *rand.Rand) []int {
	m := n.topo.G.M()
	if count > m {
		count = m
	}
	failed := rng.Perm(m)[:count]
	for _, id := range failed {
		n.links[2*id].failed = true
		n.links[2*id+1].failed = true
	}
	return failed
}
