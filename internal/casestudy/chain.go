package casestudy

import (
	"fmt"

	"pos/internal/loadgen"
	"pos/internal/netem"
	"pos/internal/perfmodel"
	"pos/internal/router"
	"pos/internal/sim"
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

// NewChain builds the multi-hop chain topology on one engine, cabled with
// netem.Wire exactly like the two-node rig. WithScalarEngine runs the
// identical chain event-per-hop — the differential-test oracle.
func NewChain(flavor Flavor, cc ChainConfig, opts ...Option) (*Topology, error) {
	o := options{seed: 1}
	for _, opt := range opts {
		opt(&o)
	}
	cc.setDefaults()

	// Cluster assignment: contiguous blocks, sizes as even as possible.
	clusterOf := make([]int, cc.Routers) // router index (0-based) -> cluster
	base, extra := cc.Routers/cc.Clusters, cc.Routers%cc.Clusters
	for i, c, fill := 0, 0, 0; i < cc.Routers; i++ {
		clusterOf[i] = c
		fill++
		size := base
		if c < extra {
			size++
		}
		if fill == size {
			c, fill = c+1, 0
		}
	}
	linkDelay := func(a, b int) sim.Duration {
		if clusterOf[a] != clusterOf[b] {
			return cc.TrunkDelay
		}
		return cc.HopDelay
	}

	return newRig(flavor, o, func(topo *Topology) error {
		engine, gen := topo.Engine, topo.Gen
		hw := flavor == BareMetal
		routers := make([]*router.Router, cc.Routers)
		for i := range routers {
			var model perfmodel.Model
			if hw {
				model = perfmodel.NewBareMetal()
			} else {
				model = perfmodel.NewVirtual(o.seed + uint64(i)*chainSeedStride)
			}
			rt, err := router.New(engine, router.Config{
				Name:               fmt.Sprintf("r%d", i+1),
				Model:              model,
				HardwareTimestamps: hw,
			})
			if err != nil {
				return err
			}
			rt.SetForwarding(false) // setup script must enable routing
			routers[i] = rt
		}

		wire := func(a, b *netem.Port, delay sim.Duration) {
			netem.Wire(engine, a, b, netem.LinkConfig{RateBitsPerSec: 10e9, PropagationDelay: delay})
		}
		wire(gen.TxPort(), routers[0].Port(0), cc.HopDelay)
		pathDelay := cc.HopDelay
		for i := 0; i+1 < cc.Routers; i++ {
			d := linkDelay(i, i+1)
			wire(routers[i].Port(1), routers[i+1].Port(0), d)
			pathDelay += d
		}
		wire(routers[cc.Routers-1].Port(1), gen.RxPort(), cc.TrunkDelay)
		pathDelay += cc.TrunkDelay

		topo.Router = routers[0]
		topo.Routers = routers
		topo.expName = experimentName(flavor, true)
		topo.minGrace = pathDelay + loadgen.DefaultDrainGrace
		return nil
	})
}
