// Package topo provides a declarative topology description for virtual
// testbeds. The paper's hardware testbed cannot re-create physical wiring
// automatically (Sec. 7) — but its virtual clone can, and does: a vpos
// instance's topology is just software. This package makes that topology an
// artifact: a small, line-oriented text format describing devices and
// direct links, a parser, a builder that instantiates the emulated network,
// and a linter enforcing the pos wiring discipline (R2: direct, non-switched
// connections — switch hops are flagged). The case study builds every rig
// it runs from a Spec, so the description is the wiring, not a copy of it.
//
//	# linux-router case study, pos flavor
//	generator loadgen hw=true
//	router dut hw=true model=baremetal
//	link loadgen.tx dut.0 rate=10G
//	link dut.1 loadgen.rx rate=10G
package topo

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"pos/internal/netem"
)

// DeviceKind enumerates the device types of the format.
type DeviceKind string

// Supported device kinds.
const (
	KindGenerator DeviceKind = "generator"
	KindRouter    DeviceKind = "router"
	KindSwitch    DeviceKind = "switch"
	KindSink      DeviceKind = "sink"
)

// DeviceSpec is one declared device.
type DeviceSpec struct {
	Kind   DeviceKind
	Name   string
	Params map[string]string
	// Line locates the declaration for diagnostics.
	Line int
}

// Endpoint is one side of a link: device name plus port label.
type Endpoint struct {
	Device string
	Port   string
}

// String renders "device.port".
func (e Endpoint) String() string { return e.Device + "." + e.Port }

// LinkSpec is one declared wire.
type LinkSpec struct {
	A, B   Endpoint
	Params map[string]string
	Line   int
}

// Spec is a parsed topology.
type Spec struct {
	Devices []DeviceSpec
	Links   []LinkSpec
}

// ParseError reports a syntax or semantic problem with its line.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *ParseError) Error() string { return fmt.Sprintf("topo: line %d: %s", e.Line, e.Msg) }

func perr(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// paramKeys lists the parameters each directive defines (see Build); any
// other key is an error, not a silently ignored typo.
var paramKeys = map[string][]string{
	string(KindGenerator): {"hw", "profile"},
	string(KindRouter):    {"model", "seed", "hw", "forwarding"},
	string(KindSwitch):    {"ports", "delay"},
	string(KindSink):      nil,
	"link":                {"rate", "prop", "queue", "jitter", "loss", "seed"},
}

// Parse reads a topology description and checks it as Build would.
func Parse(data []byte) (*Spec, error) {
	spec := &Spec{}
	for i, raw := range strings.Split(string(data), "\n") {
		lineNo := i + 1
		line := strings.TrimSpace(raw)
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = strings.TrimSpace(line[:idx])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch DeviceKind(fields[0]) {
		case KindGenerator, KindRouter, KindSwitch, KindSink:
			if len(fields) < 2 {
				return nil, perr(lineNo, "%s needs a name", fields[0])
			}
			name := fields[1]
			if strings.ContainsAny(name, ".=") {
				return nil, perr(lineNo, "device name %q may not contain '.' or '='", name)
			}
			params, err := parseParams(fields[0], fields[2:], lineNo)
			if err != nil {
				return nil, err
			}
			spec.Devices = append(spec.Devices, DeviceSpec{
				Kind: DeviceKind(fields[0]), Name: name, Params: params, Line: lineNo,
			})
		default:
			if fields[0] != "link" {
				return nil, perr(lineNo, "unknown directive %q", fields[0])
			}
			if len(fields) < 3 {
				return nil, perr(lineNo, "link needs two endpoints")
			}
			a, err := parseEndpoint(fields[1], lineNo)
			if err != nil {
				return nil, err
			}
			b, err := parseEndpoint(fields[2], lineNo)
			if err != nil {
				return nil, err
			}
			params, err := parseParams(fields[0], fields[3:], lineNo)
			if err != nil {
				return nil, err
			}
			spec.Links = append(spec.Links, LinkSpec{A: a, B: b, Params: params, Line: lineNo})
		}
	}
	_, _, err := spec.check()
	return spec, err
}

func parseEndpoint(s string, line int) (Endpoint, error) {
	dev, port, ok := strings.Cut(s, ".")
	if !ok || dev == "" || port == "" {
		return Endpoint{}, perr(line, "endpoint %q must be device.port", s)
	}
	return Endpoint{Device: dev, Port: port}, nil
}

func parseParams(directive string, fields []string, line int) (map[string]string, error) {
	if len(fields) == 0 {
		return nil, nil
	}
	out := make(map[string]string, len(fields))
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k == "" {
			return nil, perr(line, "parameter %q must be key=value", f)
		}
		if !slices.Contains(paramKeys[directive], k) {
			return nil, perr(line, "%s has no parameter %q", directive, k)
		}
		if _, dup := out[k]; dup {
			return nil, perr(line, "duplicate parameter %q", k)
		}
		out[k] = v
	}
	return out, nil
}

// check parses every parameter, then checks referential integrity and port
// usage. It returns the devices and link configurations Build instantiates,
// in declaration order.
func (s *Spec) check() ([]device, []netem.LinkConfig, error) {
	devs := make([]device, len(s.Devices))
	byName := make(map[string]*device, len(s.Devices))
	for i, d := range s.Devices {
		if byName[d.Name] != nil {
			return nil, nil, perr(d.Line, "duplicate device %q", d.Name)
		}
		var err error
		if devs[i], err = d.parse(); err != nil {
			return nil, nil, err
		}
		byName[d.Name] = &devs[i]
	}
	links := make([]netem.LinkConfig, len(s.Links))
	used := make(map[Endpoint]int, 2*len(s.Links))
	for i, l := range s.Links {
		if l.A == l.B {
			return nil, nil, perr(l.Line, "link connects %s to itself", l.A)
		}
		for _, e := range [2]Endpoint{l.A, l.B} {
			d := byName[e.Device]
			if d == nil {
				return nil, nil, perr(l.Line, "link references unknown device %q", e.Device)
			}
			if err := d.checkPort(e.Port, l.Line); err != nil {
				return nil, nil, err
			}
			if prev, dup := used[e]; dup {
				return nil, nil, perr(l.Line, "port %s already wired at line %d", e, prev)
			}
			used[e] = l.Line
		}
		var err error
		if links[i], err = l.config(); err != nil {
			return nil, nil, err
		}
	}
	return devs, links, nil
}

func (d *device) checkPort(port string, line int) error {
	var ok bool
	switch d.Kind {
	case KindGenerator:
		ok = port == "tx" || port == "rx"
	case KindRouter:
		ok = port == "0" || port == "1"
	case KindSink:
		ok = port == "0"
	case KindSwitch:
		// Only the canonical spelling names a port: "03" or "+3" would pass
		// the duplicate check beside "3" and then wire the same port twice.
		idx, err := strconv.Atoi(port)
		ok = err == nil && idx >= 0 && idx < d.ports && strconv.Itoa(idx) == port
	}
	if !ok {
		return perr(line, "%s %s has no port %q", d.Kind, d.Name, port)
	}
	return nil
}

// DirectlyWired reports whether the topology contains no switches — the pos
// wiring discipline (R2). The returned names list offending switch devices.
func (s *Spec) DirectlyWired() (bool, []string) {
	var switches []string
	for _, d := range s.Devices {
		if d.Kind == KindSwitch {
			switches = append(switches, d.Name)
		}
	}
	sort.Strings(switches)
	return len(switches) == 0, switches
}

// Render writes the canonical form of the spec.
func (s *Spec) Render() []byte {
	var b strings.Builder
	for _, d := range s.Devices {
		fmt.Fprintf(&b, "%s %s%s\n", d.Kind, d.Name, renderParams(d.Params))
	}
	for _, l := range s.Links {
		fmt.Fprintf(&b, "link %s %s%s\n", l.A, l.B, renderParams(l.Params))
	}
	return []byte(b.String())
}

func renderParams(params map[string]string) string {
	if len(params) == 0 {
		return ""
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, params[k])
	}
	return b.String()
}
