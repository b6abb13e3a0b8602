package experiments

import (
	"math/rand"

	"repro/internal/netsim"
	"repro/internal/stats"
)

// QueueModel implements the "simple queueing model" prediction of Fig 15:
// an M/M/1 processor-sharing approximation of the receiver access link.
// A flow of v bytes on a C-bps link (C = netsim.LinkBps) shared with n concurrent flows takes
// (n+1)·v·8/C plus a base RTT; under Poisson arrivals of rate λ per
// endpoint and mean size E[v], the number of concurrent flows is geometric
// with parameter the link load ρ = λ·E[v]·8/C. Flow sizes here are fixed
// (the figure plots 1MiB flows), so E[v] = v.

// QueueModelSample draws `samples` model FCTs (in ms) and digests them.
func QueueModelSample(rng *rand.Rand, samples int, flowBytes int64, lambda float64, baseRTT netsim.Time) stats.Summary {
	load := lambda * float64(flowBytes) * 8 / netsim.LinkBps
	if load > 0.95 {
		load = 0.95 // model validity guard; the paper operates below saturation
	}
	serialize := float64(flowBytes) * 8 / netsim.LinkBps // seconds
	var sm stats.Sample
	for i := 0; i < samples; i++ {
		// Geometric number-in-system: P(n) = (1-ρ)ρ^n.
		n := 0
		for rng.Float64() < load {
			n++
			if n > 1000 {
				break
			}
		}
		fct := baseRTT.Seconds() + serialize*float64(n+1)
		sm.Add(fct * 1e3)
	}
	return sm.Summarize()
}
