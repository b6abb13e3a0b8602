package topo

import "fmt"

// The linear equipment cost model of §VII-A2, following the Slim Fly /
// Dragonfly / Flattened Butterfly cost methodology: router cost is linear in
// total radix, cables are priced per link with fiber (long, inter-group) more
// expensive than copper (short, intra-group and endpoint) cables. Prices are
// k$ per unit at the 100GbE-class price point of Figure 10, following the
// published per-port figures used by the Slim Fly paper's model.
const (
	switchBase    = 1.0   // fixed cost of a router chassis
	switchPerPort = 0.350 // marginal cost per router port
	copperPerLink = 0.110 // a short electric cable
	fiberPerLink  = 0.400 // a long optic cable
	endpointNIC   = 0.550 // per-endpoint adapter
)

// CostBreakdown is the per-endpoint cost split plotted in Figure 10.
type CostBreakdown struct {
	Switches       float64 // router cost per endpoint (k$)
	EndpointLinks  float64 // endpoint cables + NICs per endpoint (k$)
	InterconnLinks float64 // router-router cables per endpoint (k$)
}

// Total returns the total cost per endpoint.
func (c CostBreakdown) Total() float64 {
	return c.Switches + c.EndpointLinks + c.InterconnLinks
}

func (c CostBreakdown) String() string {
	return fmt.Sprintf("total=%.3f (switches=%.3f endpoints=%.3f interconnect=%.3f) k$/endpoint",
		c.Total(), c.Switches, c.EndpointLinks, c.InterconnLinks)
}

// Cost evaluates the cost model on a topology, returning per-endpoint costs.
func Cost(t *Topology) CostBreakdown {
	n := float64(t.N())
	var switches float64
	for r := 0; r < t.Nr(); r++ {
		ports := t.Conc[r] + t.G.Degree(r)
		switches += switchBase + switchPerPort*float64(ports)
	}
	var interconnect float64
	for id := range t.G.Edges() {
		switch t.LinkOf[id] {
		case Copper:
			interconnect += copperPerLink
		case Fiber:
			interconnect += fiberPerLink
		}
	}
	endpoints := n * (copperPerLink + endpointNIC)
	return CostBreakdown{
		Switches:       switches / n,
		EndpointLinks:  endpoints / n,
		InterconnLinks: interconnect / n,
	}
}
