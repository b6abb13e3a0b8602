package scenario

import "testing"

// TestCacheIdentityPinned pins the literal renderings of the identity
// strings. They name files on disk (cache entries), key journal records
// and fold every resource seed, so a rendering change — even one that
// keeps identities distinct — orphans every existing cache and journal
// and moves every simulated table. Together the specs reach every branch
// of the renderings: the FT alias, the default and an explicit class,
// Param2, pfabric and fixed flow sizes, fractional and exponent-form
// floats, randomize, mat, run seeds other than 42 (positive, negative and
// maximal), and default and explicit replicas and horizon.
func TestCacheIdentityPinned(t *testing.T) {
	cases := []struct {
		spec                                 Spec
		seed                                 int64 // the run seed; 0 means 42
		identity, cacheKey, fabric, workload string
	}{
		{
			spec: Spec{
				Topology: Topology{Kind: "FT", Param: 4},
				Pattern:  Pattern{Kind: "uniform"},
			},
			identity: "v1|topo=FT3/small/4/0|pattern=uniform/0/0/0/false|routing=fatpaths|transport=ndp|layers=0|rho=0|construction=random|flowSize=1048576|load=0|failFrac=0|replicas=1|horizonMs=8000|mat=false|seed=42",
			cacheKey: "7fb54c57612ef939f925777c552cb9e10e6674a7b3a529ee2f52f1bbbc28ee0e",
			fabric:   "42|FT3/small/4/0|0|0|random",
			workload: "FT3/small/4/0|uniform/0/0/0/false|1048576|0",
		},
		{
			spec: Spec{
				Name:     "labels are not identity",
				Topology: Topology{Kind: "SF"},
				Pattern:  Pattern{Kind: "permutation", Randomize: true, Intensity: 0.3},
				FlowSize: FlowSize{Kind: "pfabric"},
				Rho:      0.65, Load: 300.5, FailFrac: 0.05,
			},
			identity: "v1|topo=SF/small/0/0|pattern=permutation/0/0/0.3/true|routing=fatpaths|transport=ndp|layers=0|rho=0.65|construction=random|flowSize=pfabric|load=300.5|failFrac=0.05|replicas=1|horizonMs=8000|mat=false|seed=42",
			cacheKey: "72dbd8195558fe55e1a02a06803818e3b8acdb26c5a416e0ce187ec637980214",
			fabric:   "42|SF/small/0/0|0|0.65|random",
			workload: "SF/small/0/0|permutation/0/0/0.3/true|pfabric|300.5",
		},
		{
			spec: Spec{
				Topology:  Topology{Kind: "HX", Param: 3, Param2: 2},
				Pattern:   Pattern{Kind: "off-diagonal", Offset: -7},
				FlowSize:  FlowSize{Bytes: 32 << 10},
				Layers:    4,
				Routing:   "ecmp",
				Transport: "dctcp",
				Replicas:  3, HorizonMs: 1500.25,
			},
			identity: "v1|topo=HX/small/3/2|pattern=off-diagonal/-7/0/0/false|routing=ecmp|transport=dctcp|layers=4|rho=0|construction=random|flowSize=32768|load=0|failFrac=0|replicas=3|horizonMs=1500.25|mat=false|seed=42",
			cacheKey: "20f8e07967627e220805ec01bca98e6b412c398edd7781edfcfdc5926e5cbd32",
			fabric:   "42|HX/small/3/2|4|0|random",
			workload: "HX/small/3/2|off-diagonal/-7/0/0/false|32768|0",
		},
		{
			spec: Spec{
				Topology:     Topology{Kind: "DF", Class: "medium"},
				Pattern:      Pattern{Kind: "k-permutations", K: 2},
				Construction: "min-interference",
				MAT:          true,
			},
			seed:     1234,
			identity: "v1|topo=DF/medium/0/0|pattern=k-permutations/0/2/0/false|routing=fatpaths|transport=ndp|layers=0|rho=0|construction=min-interference|flowSize=1048576|load=0|failFrac=0|replicas=1|horizonMs=8000|mat=true|seed=1234",
			cacheKey: "a0a31a5fde1a589fd385f114c09ea8fa6b3df5e3801a5e477caf9792c9c8132d",
			fabric:   "1234|DF/medium/0/0|0|0|min-interference",
			workload: "DF/medium/0/0|k-permutations/0/2/0/false|1048576|0",
		},
		{
			spec: Spec{
				Topology: Topology{Kind: "XP", Param: 5, Param2: 3},
				Pattern:  Pattern{Kind: "worst-case", Intensity: 1},
				FlowSize: FlowSize{Kind: "fixed", Bytes: 1},
				Rho:      1e-7, Load: 1e21, FailFrac: 0.999,
				Transport: "mptcp", Routing: "spray", Construction: "past",
				HorizonMs: 0.5,
			},
			seed:     -5,
			identity: "v1|topo=XP/small/5/3|pattern=worst-case/0/0/1/false|routing=spray|transport=mptcp|layers=0|rho=1e-07|construction=past|flowSize=1|load=1e+21|failFrac=0.999|replicas=1|horizonMs=0.5|mat=false|seed=-5",
			cacheKey: "09bc9205384aa6c214e628466e2593c697c3bd7255d5ec8e017824cb22345c72",
			fabric:   "-5|XP/small/5/3|0|1e-07|past",
			workload: "XP/small/5/3|worst-case/0/0/1/false|1|1e+21",
		},
		{
			spec: Spec{
				Topology: Topology{Kind: "Star", Param: 16},
				Pattern:  Pattern{Kind: "shuffle"},
				Layers:   1, Rho: 1, Replicas: 1, HorizonMs: 8000,
			},
			identity: "v1|topo=Star/small/16/0|pattern=shuffle/0/0/0/false|routing=fatpaths|transport=ndp|layers=1|rho=1|construction=random|flowSize=1048576|load=0|failFrac=0|replicas=1|horizonMs=8000|mat=false|seed=42",
			cacheKey: "5d670eac61c147a0ad1874570c36d758571dc99194ccb625fa70105717f6da38",
			fabric:   "42|Star/small/16/0|1|1|random",
			workload: "Star/small/16/0|shuffle/0/0/0/false|1048576|0",
		},
		{
			spec: Spec{
				Topology: Topology{Kind: "JF", Param: 5, Param2: 4},
				Pattern:  Pattern{Kind: "stencil", Intensity: 0.125, Randomize: true},
				Routing:  "letflow", Construction: "spain",
				Load: 2500, FailFrac: 0.1, MAT: true,
			},
			identity: "v1|topo=JF/small/5/4|pattern=stencil/0/0/0.125/true|routing=letflow|transport=ndp|layers=0|rho=0|construction=spain|flowSize=1048576|load=2500|failFrac=0.1|replicas=1|horizonMs=8000|mat=true|seed=42",
			cacheKey: "d02d44d048c0099c7fe01488d8d201b70f74d9a62a640913f84bc37c1c0c6324",
			fabric:   "42|JF/small/5/4|0|0|spain",
			workload: "JF/small/5/4|stencil/0/0/0.125/true|1048576|2500",
		},
		{
			spec: Spec{
				Topology:  Topology{Kind: "Clique", Class: "small", Param: 8},
				Pattern:   Pattern{Kind: "adversarial"},
				Transport: "tcp", Routing: "minimal",
				Layers: 12, Rho: 0.5, Replicas: 2,
			},
			seed:     9223372036854775807,
			identity: "v1|topo=Clique/small/8/0|pattern=adversarial/0/0/0/false|routing=minimal|transport=tcp|layers=12|rho=0.5|construction=random|flowSize=1048576|load=0|failFrac=0|replicas=2|horizonMs=8000|mat=false|seed=9223372036854775807",
			cacheKey: "49a7a1a2443de792b6efc13e294cede479556d2e79a2022622ff8d3427cba7de",
			fabric:   "9223372036854775807|Clique/small/8/0|12|0.5|random",
			workload: "Clique/small/8/0|adversarial/0/0/0/false|1048576|0",
		},
	}
	for i, c := range cases {
		s, seed := c.spec, c.seed
		if seed == 0 {
			seed = 42
		}
		for _, k := range []struct{ what, got, want string }{
			{"CacheIdentity", s.CacheIdentity(seed), c.identity},
			{"identityKey", identityKey(s.CacheIdentity(seed)), c.cacheKey},
			{"FabricKey", s.FabricKey(seed), c.fabric},
			{"workloadKey", s.workloadKey(), c.workload},
		} {
			if k.got != k.want {
				t.Errorf("spec %d: %s =\n  %s\nwant\n  %s", i, k.what, k.got, k.want)
			}
		}
	}
}
