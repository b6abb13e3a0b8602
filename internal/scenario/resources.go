package scenario

// Exported resource builders for serving layers that keep fabrics
// resident outside a sweep (cmd/fatpathsd). A fabric built here is
// byte-identical to the one RunSpecs would build for the same cell: the
// topology and layer seeds fold from the run seed and the same canonical
// resource keys, so a daemon answering /nexthop from a resident fabric
// and an offline engine at the same seed give identical answers — the
// serving side of the determinism contract.

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/topo"
)

// FabricKey is the canonical resource key of the cell's fabric: the run
// seed plus the fabric-defining axes (topology, layers, rho,
// construction). Cells with equal fabric keys share one built fabric —
// inside a run and across a daemon's requests alike, through a Store,
// whose fabrics span seeds.
func (s Spec) FabricKey(runSeed int64) string {
	b := strconv.AppendInt(make([]byte, 0, 64), runSeed, 10)
	return string(s.appendRoutingKey(append(b, '|')))
}

// BuildTopology validates the cell's topology and builds it at its
// canonical folded seed — exactly the topology RunSpecs would build for
// this cell.
func BuildTopology(s Spec, runSeed int64) (*topo.Topology, error) {
	if err := s.Topology.validate(); err != nil {
		return nil, err
	}
	return s.Topology.build(seedFor(runSeed, "topo|"+s.Topology.key()))
}

// BuildFabricOn equips a built topology with the cell's layer set and
// routing engine at the canonical folded layer seed. reg, when non-nil,
// instruments the routing engine (routing.* metrics); simulations bring
// their own bundle in netsim.Config.Metrics.
func BuildFabricOn(s Spec, t *topo.Topology, runSeed int64, reg *obs.Registry) (*core.Fabric, error) {
	fab, err := core.Build(t, coreConfig(s, t, seedFor(runSeed, string(s.appendRoutingKey([]byte("layers|"))))))
	if err == nil {
		fab.Fwd.SetMetrics(obs.NewRoutingMetrics(reg))
	}
	return fab, err
}

// BuildFabric builds the cell's topology and fabric in one step — the
// daemon's miss path and cmd/fatpaths. Only the fabric-defining axes of s
// are read and validated, so a caller with no workload leaves the rest
// zero. Equal (FabricKey, fingerprint) always yields a behaviorally
// identical fabric.
func BuildFabric(s Spec, runSeed int64, reg *obs.Registry) (*topo.Topology, *core.Fabric, error) {
	if err := s.validateFabric(); err != nil {
		return nil, nil, err
	}
	t, err := BuildTopology(s, runSeed)
	if err != nil {
		return nil, nil, err
	}
	fab, err := BuildFabricOn(s, t, runSeed, reg)
	if err != nil {
		return nil, nil, err
	}
	return t, fab, nil
}
