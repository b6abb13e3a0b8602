package layers

import "repro/internal/routing"

// Channel-dependency analysis for lossless deployments. FatPaths targets
// lossy Ethernet, where deadlock is not a concern, but §VIII-A6 proposes
// carrying the layered design to InfiniBand — a lossless, credit-based
// fabric where a routing function is usable only if its channel dependency
// graph (CDG) is acyclic (Dally–Seitz). The paper's layer concept itself is
// "similar to virtual layers known from works on deadlock-freedom" (LASH);
// this file provides the analysis that makes that connection concrete: per
// layer, build the CDG induced by the forwarding function and test it for
// cycles, so a deployment can assign virtual lanes per layer (LASH-style)
// only where needed.

// DeadlockReport summarizes the CDG analysis of one layer.
type DeadlockReport struct {
	Layer int
	// Channels is the number of directed links used by at least one route.
	Channels int
	// Dependencies is the number of CDG edges (consecutive channel pairs).
	Dependencies int
	// Acyclic reports whether the CDG has no cycle (deadlock-free for
	// lossless credit-based flow control).
	Acyclic bool
}

// AnalyzeDeadlock builds the channel dependency graph of one layer's
// routing tables over all router pairs and checks it for cycles. Channels
// are directed router-router links; a dependency (c1 -> c2) exists when
// some route enters a router over c1 and leaves over c2. Because the
// routing core keeps the full within-layer ECMP candidate sets, the CDG
// covers every minimal route the flowlet balancer may use — not just one
// frozen representative per pair.
func AnalyzeDeadlock(f *routing.Engine, ls *LayerSet, layer int) DeadlockReport {
	g := ls.Base
	nr := g.N()
	// A channel is a directed link: its id is the graph arc id.
	used := make(map[int]bool)
	deps := make(map[int64]bool) // c1*2M + c2
	m2 := int64(2 * g.M())
	var hops, onward []int32
	for dst := 0; dst < nr; dst++ {
		// Walk the minimal-path DAG toward dst: every candidate edge is a
		// used channel, and each consecutive candidate pair (u -> v -> w)
		// is a dependency.
		for src := 0; src < nr; src++ {
			if src == dst {
				continue
			}
			hops = f.AppendCandidates(hops[:0], layer, src, dst)
			for _, v := range hops {
				c1 := g.Arc(src, int(v))
				used[c1] = true
				onward = f.AppendCandidates(onward[:0], layer, int(v), dst)
				for _, w := range onward {
					c2 := g.Arc(int(v), int(w))
					deps[int64(c1)*m2+int64(c2)] = true
				}
			}
		}
	}
	// Cycle check on the dependency graph via iterative DFS coloring.
	adj := make(map[int][]int, len(used))
	//det:allow maprange -- adjacency lists feed only the cycle-existence check below; acyclicity does not depend on edge or visit order
	for key := range deps {
		c1 := int(key / m2)
		c2 := int(key % m2)
		adj[c1] = append(adj[c1], c2)
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int]int, len(used))
	acyclic := true
	type frame struct {
		node int
		next int
	}
	//det:allow maprange -- start only picks the DFS roots; whether the dependency graph has a cycle does not depend on which root finds it
	for start := range used {
		if color[start] != white {
			continue
		}
		frames := []frame{{node: start}}
		color[start] = gray
		for len(frames) > 0 && acyclic {
			fr := &frames[len(frames)-1]
			children := adj[fr.node]
			if fr.next < len(children) {
				child := children[fr.next]
				fr.next++
				switch color[child] {
				case white:
					color[child] = gray
					frames = append(frames, frame{node: child})
				case gray:
					acyclic = false
				}
			} else {
				color[fr.node] = black
				frames = frames[:len(frames)-1]
			}
		}
		if !acyclic {
			break
		}
	}
	return DeadlockReport{
		Layer:        layer,
		Channels:     len(used),
		Dependencies: len(deps),
		Acyclic:      acyclic,
	}
}

// AnalyzeAllLayers runs the CDG analysis on every layer.
func AnalyzeAllLayers(f *routing.Engine, ls *LayerSet) []DeadlockReport {
	out := make([]DeadlockReport, 0, ls.N())
	for l := 0; l < ls.N(); l++ {
		out = append(out, AnalyzeDeadlock(f, ls, l))
	}
	return out
}
