package topo

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"pos/internal/loadgen"
	"pos/internal/netem"
	"pos/internal/perfmodel"
	"pos/internal/router"
	"pos/internal/sim"
)

// Network is an instantiated topology.
type Network struct {
	Engine     *sim.Engine
	Generators map[string]*loadgen.Generator
	Routers    map[string]*router.Router
	Switches   map[string]*netem.Switch
	Sinks      map[string]*netem.Sink
}

// Build instantiates the topology on a fresh discrete-event engine in
// batched (cut-through) mode. It first checks parameter values, device
// names and port wiring as Parse does, so a Spec assembled in code fails
// with the *ParseError its text form would.
//
// Device parameters:
//   - generator: hw=true|false (hardware timestamps), profile=moongen|osnt|iperf
//   - router: model=baremetal|vm, seed=N, hw=true|false, forwarding=true|false
//   - switch: ports=N, delay=DUR (e.g. 300ns)
//   - sink: none
//
// Link parameters: rate=BITS (10G, 1e9, 25000000000), prop=DUR, queue=DUR,
// jitter=DUR (delay variation), loss=RATIO, seed=N. Seeds are unsigned
// 64-bit integers.
func (s *Spec) Build() (*Network, error) {
	devs, links, err := s.check()
	if err != nil {
		return nil, err
	}
	n := &Network{
		Engine:     sim.NewEngine(),
		Generators: map[string]*loadgen.Generator{},
		Routers:    map[string]*router.Router{},
		Switches:   map[string]*netem.Switch{},
		Sinks:      map[string]*netem.Sink{},
	}
	n.Engine.SetBatching(true)
	for _, d := range devs {
		switch d.Kind {
		case KindGenerator:
			if _, ok := d.Params["profile"]; ok {
				n.Generators[d.Name] = loadgen.NewWithProfile(n.Engine, d.Name, d.profile)
			} else {
				n.Generators[d.Name] = loadgen.New(n.Engine, d.Name, d.hw)
			}
		case KindRouter:
			var model perfmodel.Model
			if d.model == "vm" {
				model = perfmodel.NewVirtual(d.seed)
			} else {
				model = perfmodel.NewBareMetal()
			}
			rt, err := router.New(n.Engine, router.Config{
				Name:               d.Name,
				Model:              model,
				HardwareTimestamps: d.hw,
			})
			if err != nil {
				return nil, perr(d.Line, "%v", err)
			}
			rt.SetForwarding(d.forwarding)
			n.Routers[d.Name] = rt
		case KindSwitch:
			n.Switches[d.Name] = netem.NewSwitch(n.Engine, d.Name, d.ports, d.delay)
		case KindSink:
			n.Sinks[d.Name] = netem.NewSink(d.Name)
		}
	}
	for i, l := range s.Links {
		netem.Wire(n.Engine, n.port(l.A), n.port(l.B), links[i])
	}
	return n, nil
}

// port resolves a checked endpoint.
func (n *Network) port(e Endpoint) *netem.Port {
	if g, ok := n.Generators[e.Device]; ok {
		if e.Port == "tx" {
			return g.TxPort()
		}
		return g.RxPort()
	}
	idx, _ := strconv.Atoi(e.Port)
	if r, ok := n.Routers[e.Device]; ok {
		return r.Port(idx)
	}
	if sw, ok := n.Switches[e.Device]; ok {
		return sw.Port(idx)
	}
	return n.Sinks[e.Device].Port
}

// maxSwitchPorts bounds the ports one switch declaration may ask for.
const maxSwitchPorts = 1024

// device is a declaration with its parameters parsed and defaulted.
type device struct {
	DeviceSpec
	hw, forwarding bool
	profile        loadgen.Profile
	model          string
	seed           uint64
	ports          int
	delay          sim.Duration
}

// parse reads every parameter of the declaration; each kind defines only
// some of them (paramKeys), the rest keep their defaults.
func (d DeviceSpec) parse() (device, error) {
	dev := device{DeviceSpec: d, hw: true, forwarding: true, seed: 1, ports: 2, delay: netem.CutThroughSwitchDelay}
	return dev, cmp.Or(
		param(d.Line, d.Params, "hw", &dev.hw, parseBool),
		param(d.Line, d.Params, "forwarding", &dev.forwarding, parseBool),
		param(d.Line, d.Params, "profile", &dev.profile, profileByName),
		param(d.Line, d.Params, "model", &dev.model, parseModel),
		param(d.Line, d.Params, "seed", &dev.seed, parseUint),
		param(d.Line, d.Params, "ports", &dev.ports, parsePorts),
		param(d.Line, d.Params, "delay", &dev.delay, parseDuration))
}

// config reads the link's parameters.
func (l LinkSpec) config() (netem.LinkConfig, error) {
	var cfg netem.LinkConfig
	return cfg, cmp.Or(
		param(l.Line, l.Params, "rate", &cfg.RateBitsPerSec, parseRate),
		param(l.Line, l.Params, "prop", &cfg.PropagationDelay, parseDuration),
		param(l.Line, l.Params, "queue", &cfg.QueueDelayLimit, parseDuration),
		param(l.Line, l.Params, "jitter", &cfg.DelayJitterStd, parseDuration),
		param(l.Line, l.Params, "loss", &cfg.LossRatio, parseLoss),
		param(l.Line, l.Params, "seed", &cfg.Seed, parseUint))
}

// param stores parse(params[key]) in *dst when the key is set; a value
// parse rejects is a *ParseError naming the line and the key.
func param[T any](line int, params map[string]string, key string, dst *T, parse func(string) (T, error)) error {
	v, ok := params[key]
	if !ok {
		return nil
	}
	x, err := parse(v)
	if err != nil {
		return perr(line, "bad %s=%q: %v", key, v, err)
	}
	*dst = x
	return nil
}

func parseBool(v string) (bool, error) {
	if v != "true" && v != "false" {
		return false, errors.New("want true or false")
	}
	return v == "true", nil
}

func parseUint(v string) (uint64, error) {
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, errors.New("want an unsigned 64-bit integer")
	}
	return n, nil
}

func parsePorts(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 || n > maxSwitchPorts {
		return 0, fmt.Errorf("want 1..%d", maxSwitchPorts)
	}
	return n, nil
}

func parseDuration(v string) (sim.Duration, error) {
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, errors.New("want a duration of 0s or more")
	}
	return d, nil
}

func parseLoss(v string) (float64, error) {
	loss, err := strconv.ParseFloat(v, 64)
	if err != nil || !(loss >= 0 && loss < 1) { // negated so NaN fails too
		return 0, errors.New("want a ratio in [0, 1)")
	}
	return loss, nil
}

// parseRate accepts raw bit rates ("1e9", "10000000000") and suffixed forms
// ("10G", "25g", "100M", "1T").
func parseRate(s string) (float64, error) {
	mult := 1.0
	if n := len(s); n > 0 {
		if m, ok := rateSuffixes[strings.ToUpper(s[n-1:])]; ok {
			mult, s = m, s[:n-1]
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	// Negated so NaN fails too; the product catches overflow to +Inf.
	if err != nil || !(v > 0) || math.IsInf(v*mult, 0) {
		return 0, errors.New("want a positive bit rate")
	}
	return v * mult, nil
}

var rateSuffixes = map[string]float64{"K": 1e3, "M": 1e6, "G": 1e9, "T": 1e12}

func profileByName(name string) (loadgen.Profile, error) {
	switch name {
	case "moongen":
		return loadgen.MoonGenProfile(), nil
	case "osnt":
		return loadgen.OSNTProfile(), nil
	case "iperf":
		return loadgen.IPerfProfile(), nil
	default:
		return loadgen.Profile{}, errors.New("want moongen, osnt or iperf")
	}
}

func parseModel(name string) (string, error) {
	if name != "baremetal" && name != "vm" {
		return "", errors.New("want baremetal or vm")
	}
	return name, nil
}
