package casestudy

import (
	"strconv"

	"pos/internal/loadgen"
	"pos/internal/sim"
	"pos/internal/topo"
)

// ChainConfig parameterizes the multi-hop router chain topology: the load
// generator feeds router 1, each router forwards to the next, and the last
// router returns traffic to the generator's RX port. Routers group into
// contiguous clusters joined by slow trunk links. Clusters are topology —
// where the long links sit — not placement: the whole chain runs on one
// engine.
type ChainConfig struct {
	// Routers is the chain length (default 4).
	Routers int
	// Clusters is how many contiguous router groups the chain forms
	// (default 2, at most Routers). Trunk links sit at the cluster
	// boundaries and on the return path.
	Clusters int
	// HopDelay is the propagation delay of intra-cluster links
	// (default 5 µs — patch cables inside one rack).
	HopDelay sim.Duration
	// TrunkDelay is the propagation delay of cluster-boundary trunks and
	// the return link (default 2 ms — inter-site fibre).
	TrunkDelay sim.Duration
}

func (c *ChainConfig) setDefaults() {
	if c.Routers <= 0 {
		c.Routers = 4
	}
	if c.Clusters <= 0 {
		c.Clusters = 2
	}
	if c.Clusters > c.Routers {
		c.Clusters = c.Routers
	}
	if c.HopDelay <= 0 {
		c.HopDelay = 5 * sim.Microsecond
	}
	if c.TrunkDelay <= 0 {
		c.TrunkDelay = 2 * sim.Millisecond
	}
}

// chainSeedStride derives per-router VM jitter seeds from the topology seed:
// a router's seed depends only on its position in the chain.
const chainSeedStride = 0x9E3779B97F4A7C15

// NewChain builds the multi-hop chain topology on one engine, declared as a
// topo.Spec and built by topo.Build exactly like the two-node rig.
func NewChain(flavor Flavor, cc ChainConfig, opts ...Option) (*Topology, error) {
	o := buildOptions(opts)
	cc.setDefaults()

	// Clusters are contiguous blocks, sizes as even as possible (larger
	// first); a trunk follows the last router of each.
	trunkAfter := make([]bool, cc.Routers)
	base, extra := cc.Routers/cc.Clusters, cc.Routers%cc.Clusters
	for c, end := 0, 0; c < cc.Clusters; c++ {
		end += base
		if c < extra {
			end++
		}
		trunkAfter[end-1] = true
	}

	spec := topo.Spec{Devices: []topo.DeviceSpec{o.generator(flavor)}}
	names := make([]string, cc.Routers)
	for i := range names {
		names[i] = "r" + strconv.Itoa(i+1)
		spec.Devices = append(spec.Devices, routerDevice(flavor, names[i], o.seed+uint64(i)*chainSeedStride))
	}
	hop := map[string]string{"rate": "10G", "prop": cc.HopDelay.String()}
	trunk := map[string]string{"rate": "10G", "prop": cc.TrunkDelay.String()}
	spec.Links = path(names, func(i int) map[string]string {
		if i > 0 && trunkAfter[i-1] {
			return trunk
		}
		return hop
	})

	t, err := newRig(flavor, o, spec, true)
	if err != nil {
		return nil, err
	}
	// One trunk ends each cluster, the last one being the return link.
	trunks := sim.Duration(cc.Clusters)
	t.minGrace = (sim.Duration(cc.Routers+1)-trunks)*cc.HopDelay + trunks*cc.TrunkDelay + loadgen.DefaultDrainGrace
	return t, nil
}
