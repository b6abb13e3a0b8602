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

// FailRouterLink marks the router-router link between routers u and v as
// failed in both directions. It reports whether such a link existed.
func (n *Network) FailRouterLink(u, v int) bool {
	lu, lv := n.routerLink(u, int32(v)), n.routerLink(v, int32(u))
	if lu == nil || lv == nil {
		return false
	}
	lu.failed = true
	lv.failed = true
	return true
}

// FailRandomLinks fails count distinct router-router links chosen u.a.r.
// and returns the affected edge IDs. Edge IDs without a router-router
// entry (no failable link) do not count against the quota: the walk keeps
// drawing replacements from the rest of the permutation until count links
// actually failed or the graph is exhausted, so callers asking for k
// failures get exactly k whenever the topology has that many failable
// links. (An earlier revision walked only the first count samples and
// silently failed fewer links when some draws were unfailable.)
func (n *Network) FailRandomLinks(count int, rng *rand.Rand) []int {
	m := n.topo.G.M()
	if count > m {
		count = m
	}
	perm := rng.Perm(m)
	var failed []int
	for _, id := range perm {
		if len(failed) == count {
			break
		}
		e := n.topo.G.Edge(id)
		if n.FailRouterLink(int(e.U), int(e.V)) {
			failed = append(failed, id)
		}
	}
	return failed
}
