// Package casestudy reproduces the paper's Sec. 5 / Appendix A experiment:
// a MoonGen load generator measuring the forwarding throughput of a Linux
// router for 64 B and 1500 B packets on two platforms — pos (bare metal) and
// vpos (the virtual clone of the testbed).
//
// It assembles a two-node testbed (LoadGen and DuT) with directly wired
// 10 Gbit/s links, attaches the data plane (internal/loadgen,
// internal/router over internal/netem on a shared internal/sim engine,
// declared as an internal/topo spec and built by topo.Build), and
// registers the domain commands the experiment scripts call: `moongen` on
// the load generator, `router_enable`/`router_stats` on the DuT. The
// experiment definition itself is pure pos methodology — scripts plus
// variable files — so the identical scripts run on both platforms, the
// property the paper demonstrates.
package casestudy

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"

	"pos/internal/core"
	"pos/internal/image"
	"pos/internal/loadgen"
	"pos/internal/node"
	"pos/internal/packet"
	"pos/internal/router"
	"pos/internal/sim"
	"pos/internal/testbed"
	"pos/internal/topo"
)

// Flavor selects the platform of the case study.
type Flavor string

// The two platforms compared in Fig. 3.
const (
	// BareMetal is the hardware testbed: Intel 82599 NICs with hardware
	// timestamping, a Linux router forwarding ~1.75 Mpps.
	BareMetal Flavor = "pos"
	// Virtual is vpos: KVM guests behind Linux bridges — ~44x lower
	// drop-free throughput, unstable under overload, no hardware
	// timestamps (and therefore no latency measurements).
	Virtual Flavor = "vpos"
)

// Topology is the running rig: the classic two-node pair of the case study,
// or a multi-hop router chain (NewChain). Either way the whole data plane —
// generator, links, every router — lives on one engine, one timeline.
type Topology struct {
	Flavor  Flavor
	Testbed *testbed.Testbed
	Engine  *sim.Engine
	Gen     *loadgen.Generator
	// Router is the first hop (the DuT of the two-node rig); Routers holds
	// every forwarding device, in path order.
	Router   *router.Router
	Routers  []*router.Router
	LoadGen  string // node name playing the load generator
	DuT      string // node name playing the device under test
	template func(frameSize int) packet.UDPTemplate
	expName  string // experiment definition name
	// minGrace floors RunConfig.DrainGrace at the topology's end-to-end
	// path delay so in-flight packets on long trunks are not misread as
	// loss when the caller leaves the grace defaulted.
	minGrace sim.Duration
	// wiring is the spec the data plane was built from (see Wiring).
	wiring topo.Spec

	// faults, when non-nil, is the deterministic fault injector every
	// Runner() built from this topology is wrapped with (see SetFaults).
	// Occurrences count over the topology's lifetime, like the condition
	// of a physical node.
	faults *sim.FaultInjector

	// mu guards lastRun, written by the moongen command (executed on the
	// loadgen node) and read by moongen_hist.
	mu      sync.Mutex
	lastRun *loadgen.RunResult
}

// Option tweaks the topology.
type Option func(*options)

type options struct {
	seed        uint64
	switched    bool
	switchDelay sim.Duration
	profile     string
}

// WithSeed pins the VM jitter seed (default 1).
func WithSeed(seed uint64) Option {
	return func(o *options) { o.seed = seed }
}

// WithSwitch inserts an L2 switch between the hosts instead of direct
// wiring — the ablation from the paper's limitations section.
func WithSwitch(delay sim.Duration) Option {
	return func(o *options) { o.switched = true; o.switchDelay = delay }
}

// WithGenerator replaces the default load generator fidelity with the named
// profile, as topo's profile= parameter spells it: moongen, osnt (hardware)
// or iperf (software-class). The profile's timestamping capability
// overrides the platform default, so an OSNT card measures latency even in
// vpos and an iPerf host never measures it in hardware terms. An unknown
// name fails the build.
func WithGenerator(profile string) Option {
	return func(o *options) { o.profile = profile }
}

func buildOptions(opts []Option) options {
	o := options{seed: 1}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// New builds the two-node topology on fresh testbed infrastructure. The
// node names follow the paper's virtual testbed: vriga (LoadGen) and vtartu
// (DuT).
func New(flavor Flavor, opts ...Option) (*Topology, error) {
	return newTopology(flavor, 0, opts...)
}

// NewReplicas builds n independent copies of the topology — the replica
// testbeds of a parallel campaign, like spawning n vpos instances of the
// same virtual testbed. Every replica runs its own engine, testbed, and
// control plane; the VM jitter seed is offset per replica so the replicas
// are deterministic yet independent. On error, already-built replicas are
// closed.
func NewReplicas(flavor Flavor, n int, opts ...Option) ([]*Topology, error) {
	if n <= 0 {
		return nil, fmt.Errorf("casestudy: need at least one replica, got %d", n)
	}
	topos := make([]*Topology, n)
	for i := range topos {
		t, err := newTopology(flavor, uint64(i), opts...)
		if err != nil {
			for _, built := range topos[:i] {
				built.Close()
			}
			return nil, err
		}
		topos[i] = t
	}
	return topos, nil
}

// tenGig is the parameter set of the rig's 10 Gbit/s cables.
var tenGig = map[string]string{"rate": "10G"}

func newTopology(flavor Flavor, seedOffset uint64, opts ...Option) (*Topology, error) {
	o := buildOptions(opts)
	o.seed += seedOffset
	spec := topo.Spec{Devices: []topo.DeviceSpec{o.generator(flavor), routerDevice(flavor, "dut", o.seed)}}
	hops := []string{"dut"} // pos wiring: direct, non-switched connections (R2)
	if o.switched {
		// Each cable runs through its own 2-port cross-connect, the way
		// an L1/L2 switch would patch the topology. A single shared L2
		// switch would be wrong here: the emulated Linux router forwards
		// frames without rewriting MACs, so one broadcast domain across
		// both router ports would flood and loop.
		sw := map[string]string{"ports": "2", "delay": o.switchDelay.String()}
		spec.Devices = append(spec.Devices,
			topo.DeviceSpec{Kind: topo.KindSwitch, Name: "swA", Params: sw},
			topo.DeviceSpec{Kind: topo.KindSwitch, Name: "swB", Params: sw})
		hops = []string{"swA", "dut", "swB"}
	}
	spec.Links = path(hops, func(int) map[string]string { return tenGig })
	return newRig(flavor, o, spec, false)
}

// genName names the load generator device on the LoadGen node.
const genName = "loadgen"

// generator declares the load generator: the named profile, else MoonGen
// with hardware timestamps on bare metal only.
func (o options) generator(flavor Flavor) topo.DeviceSpec {
	params := map[string]string{"hw": strconv.FormatBool(flavor == BareMetal)}
	if o.profile != "" {
		params = map[string]string{"profile": o.profile}
	}
	return topo.DeviceSpec{Kind: topo.KindGenerator, Name: genName, Params: params}
}

// routerDevice declares one Linux router: the bare-metal model with
// hardware timestamps, or a seeded VM without them.
func routerDevice(flavor Flavor, name string, seed uint64) topo.DeviceSpec {
	params := map[string]string{"hw": "true", "model": "baremetal"}
	if flavor != BareMetal {
		params = map[string]string{"hw": "false", "model": "vm", "seed": strconv.FormatUint(seed, 10)}
	}
	return topo.DeviceSpec{Kind: topo.KindRouter, Name: name, Params: params}
}

// path cables the load generator's tx port through hops — each entered on
// port 0 and left on port 1 — back to its rx port; link i has params(i).
func path(hops []string, params func(i int) map[string]string) []topo.LinkSpec {
	links := make([]topo.LinkSpec, len(hops)+1)
	from := topo.Endpoint{Device: genName, Port: "tx"}
	for i, hop := range hops {
		links[i] = topo.LinkSpec{A: from, B: topo.Endpoint{Device: hop, Port: "0"}, Params: params(i)}
		from = topo.Endpoint{Device: hop, Port: "1"}
	}
	links[len(hops)] = topo.LinkSpec{A: from, B: topo.Endpoint{Device: genName, Port: "rx"}, Params: params(len(hops))}
	return links
}

// The rig's two pos nodes, named after the paper's virtual testbed.
const (
	loadGenNode = "vriga"
	dutNode     = "vtartu"
)

// experimentName names the case study's experiment definition on a platform:
// the two-node rig's, or the router chain's.
func experimentName(flavor Flavor, chain bool) string {
	if chain {
		return "router-chain-" + string(flavor)
	}
	return "linux-router-" + string(flavor)
}

// newRig builds what every topology stands on — testbed, OS image, the two
// pos nodes — and the data plane the spec declares, with every router's
// forwarding off until a setup script enables it. Any failure after the
// testbed exists closes it, so a failed build leaks no control-plane
// listener.
func newRig(flavor Flavor, o options, spec topo.Spec, chain bool) (t *Topology, err error) {
	tb := testbed.New()
	defer func() {
		if err != nil {
			tb.Close()
		}
	}()
	if err := tb.Images.Add(image.DefaultDebianBuster()); err != nil {
		return nil, err
	}
	lgHandle, err := tb.AddNode(loadGenNode)
	if err != nil {
		return nil, err
	}
	dutHandle, err := tb.AddNode(dutNode)
	if err != nil {
		return nil, err
	}
	dp, err := spec.Build()
	if err != nil {
		return nil, err
	}
	t = &Topology{
		Flavor:   flavor,
		Testbed:  tb,
		Engine:   dp.Engine,
		Gen:      dp.Generators[genName],
		Routers:  make([]*router.Router, 0, len(dp.Routers)),
		LoadGen:  loadGenNode,
		DuT:      dutNode,
		template: defaultTemplate,
		expName:  experimentName(flavor, chain),
		wiring:   spec,
	}
	for _, d := range spec.Devices {
		if d.Kind == topo.KindRouter {
			t.Routers = append(t.Routers, dp.Routers[d.Name])
		}
	}
	t.Router = t.Routers[0]
	t.SetForwarding(false) // setup script must enable routing
	lgHandle.OnBoot(t.installLoadGenTools)
	dutHandle.OnBoot(t.installDuTTools)
	return t, nil
}

// Wiring returns the data plane's canonical topology description: the
// spec the rig was built from, rendered in topo's text format.
func (t *Topology) Wiring() []byte { return t.wiring.Render() }

// defaultTemplate is the synthetic frame prototype shared by every topology
// flavor: the addresses of the paper's two-host rig.
func defaultTemplate(frameSize int) packet.UDPTemplate {
	return packet.UDPTemplate{
		SrcMAC:  packet.MAC{0x02, 0, 0, 0, 0, 0x01},
		DstMAC:  packet.MAC{0x02, 0, 0, 0, 0, 0x02},
		SrcIP:   packet.IPv4Addr{10, 0, 0, 2},
		DstIP:   packet.IPv4Addr{10, 0, 1, 2},
		SrcPort: 1234, DstPort: 4321,
		FrameSize: frameSize,
	}
}

// SetForwarding toggles ip_forward on every router of the topology.
func (t *Topology) SetForwarding(on bool) {
	for _, r := range t.Routers {
		r.SetForwarding(on)
	}
}

// RouterStats sums the forwarding counters over every router. Forwarded
// counts each hop, so a packet traversing a K-router chain contributes K.
func (t *Topology) RouterStats() router.Stats {
	var sum router.Stats
	for _, r := range t.Routers {
		st := r.Stats()
		sum.Forwarded += st.Forwarded
		sum.Dropped += st.Dropped
		sum.TTLExpired += st.TTLExpired
		sum.BadPacket += st.BadPacket
		sum.NotRouting += st.NotRouting
	}
	return sum
}

// ResetRouterStats zeroes every router's counters and CPU backlog.
func (t *Topology) ResetRouterStats() {
	for _, r := range t.Routers {
		r.ResetStats()
	}
}

// runMeasurement executes one measurement run against the data plane,
// flooring the drain grace at the topology's path delay.
func (t *Topology) runMeasurement(cfg loadgen.RunConfig) (loadgen.RunResult, error) {
	if cfg.DrainGrace == 0 && t.minGrace > loadgen.DefaultDrainGrace {
		cfg.DrainGrace = t.minGrace
	}
	return t.Gen.Run(cfg)
}

// SetFaults arms (or disarms, with nil) the topology with a deterministic
// fault schedule, keyed by node name (vriga, vtartu). Every runner built via
// Topology.Runner is wrapped with the injector, so a campaign replica built
// from this topology misbehaves on exactly the scheduled operations — the
// reproducible way to rehearse the fault-tolerance path (retry, clean-slate
// re-setup, quarantine) before trusting it on hardware. Arming one topology
// of a NewReplicas batch breaks that single replica.
func (t *Topology) SetFaults(plans map[string]sim.FaultPlan) {
	if plans == nil {
		t.faults = nil
		return
	}
	t.faults = sim.NewFaultInjector(plans)
}

// Runner builds the topology's workflow runner, wrapped with the fault
// injector when one is armed. Campaign replicas must be built through this
// method (not Testbed.Runner directly) or scheduled faults never fire.
func (t *Topology) Runner() *core.Runner {
	r := t.Testbed.Runner()
	if t.faults != nil {
		r.InjectFaults(t.faults)
	}
	return r
}

// Close releases the control-plane resources.
func (t *Topology) Close() { t.Testbed.Close() }

// installLoadGenTools registers the `moongen` command plus `moongen_hist`,
// which emits the latency samples of the most recent run as MoonGen's
// histogram CSV — the second data product the paper's plotting scripts
// consume ("throughput and latency data created by MoonGen").
func (t *Topology) installLoadGenTools(n *node.Node) error {
	if err := n.RegisterCommand("moongen", func(ctx context.Context, _ *node.Node, args []string, stdout, stderr node.ErrWriter) error {
		cfg, err := parseMoonGenArgs(args)
		if err != nil {
			return err
		}
		cfg.Template = t.template(cfg.frameSize)
		res, err := t.runMeasurement(cfg.RunConfig)
		if err != nil {
			return err
		}
		t.mu.Lock()
		t.lastRun = &res
		t.mu.Unlock()
		return res.WriteReport(writerOf(stdout))
	}); err != nil {
		return err
	}
	return n.RegisterCommand("moongen_hist", func(_ context.Context, _ *node.Node, _ []string, stdout, _ node.ErrWriter) error {
		t.mu.Lock()
		last := t.lastRun
		t.mu.Unlock()
		if last == nil {
			return fmt.Errorf("moongen_hist: no completed run")
		}
		if !last.LatencyAvailable {
			return fmt.Errorf("moongen_hist: no latency data (hardware timestamps unavailable)")
		}
		return last.WriteLatencyCSV(writerOf(stdout))
	})
}

// installDuTTools registers the router-control commands.
func (t *Topology) installDuTTools(n *node.Node) error {
	if err := n.RegisterCommand("router_enable", func(context.Context, *node.Node, []string, node.ErrWriter, node.ErrWriter) error {
		t.SetForwarding(true)
		return nil
	}); err != nil {
		return err
	}
	if err := n.RegisterCommand("router_disable", func(context.Context, *node.Node, []string, node.ErrWriter, node.ErrWriter) error {
		t.SetForwarding(false)
		return nil
	}); err != nil {
		return err
	}
	return n.RegisterCommand("router_stats", func(_ context.Context, _ *node.Node, args []string, stdout, _ node.ErrWriter) error {
		st := t.RouterStats()
		fmt.Fprintf(writerOf(stdout), "forwarded=%d dropped=%d ttl_expired=%d bad=%d not_routing=%d\n",
			st.Forwarded, st.Dropped, st.TTLExpired, st.BadPacket, st.NotRouting)
		if len(args) == 1 && args[0] == "--reset" {
			t.ResetRouterStats()
		}
		return nil
	})
}

type moonGenConfig struct {
	loadgen.RunConfig
	frameSize int
}

// maxRunSeconds is the longest --time a sim.Duration can hold (~292 years).
const maxRunSeconds = float64(math.MaxInt64 / int64(sim.Second))

// parseMoonGenArgs understands the flags the measurement script passes:
// --rate <pps> --size <frame bytes> --time <seconds>.
func parseMoonGenArgs(args []string) (moonGenConfig, error) {
	cfg := moonGenConfig{}
	cfg.frameSize = 64
	seconds := 1.0
	for i := 0; i < len(args); i++ {
		flag := args[i]
		if i+1 >= len(args) {
			return cfg, fmt.Errorf("moongen: flag %s needs a value", flag)
		}
		val := args[i+1]
		i++
		switch flag {
		case "--rate":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil || r <= 0 {
				return cfg, fmt.Errorf("moongen: bad rate %q", val)
			}
			cfg.RatePPS = r
		case "--size":
			s, err := strconv.Atoi(val)
			if err != nil {
				return cfg, fmt.Errorf("moongen: bad size %q", val)
			}
			cfg.frameSize = s
		case "--time":
			sec, err := strconv.ParseFloat(val, 64)
			// Negated so NaN fails too; the upper bound keeps the
			// nanosecond conversion below inside an int64.
			if err != nil || !(sec > 0 && sec <= maxRunSeconds) {
				return cfg, fmt.Errorf("moongen: bad --time %q", val)
			}
			seconds = sec
		default:
			return cfg, fmt.Errorf("moongen: unknown flag %s", flag)
		}
	}
	if cfg.RatePPS == 0 {
		return cfg, fmt.Errorf("moongen: --rate is required")
	}
	cfg.Duration = sim.Duration(seconds * float64(sim.Second))
	return cfg, nil
}

// writerOf adapts node.ErrWriter to io.Writer.
type writerAdapter struct{ w node.ErrWriter }

func (w writerAdapter) Write(p []byte) (int, error) { return w.w.Write(p) }

func writerOf(w node.ErrWriter) writerAdapter { return writerAdapter{w} }
