package topo

import (
	"bytes"
	"strings"
	"testing"

	"pos/internal/loadgen"
	"pos/internal/packet"
	"pos/internal/sim"
)

const caseStudyTopo = `# linux-router case study, pos flavor
generator lg hw=true
router dut model=baremetal
link lg.tx dut.0 rate=10G
link dut.1 lg.rx rate=10G
`

func TestParseCaseStudy(t *testing.T) {
	spec, err := Parse([]byte(caseStudyTopo))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Devices) != 2 || len(spec.Links) != 2 {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.Devices[0].Kind != KindGenerator || spec.Devices[0].Name != "lg" {
		t.Errorf("device 0 = %+v", spec.Devices[0])
	}
	if spec.Links[0].A.String() != "lg.tx" || spec.Links[0].B.String() != "dut.0" {
		t.Errorf("link 0 = %+v", spec.Links[0])
	}
	if spec.Links[0].Params["rate"] != "10G" {
		t.Errorf("params = %v", spec.Links[0].Params)
	}
	direct, switches := spec.DirectlyWired()
	if !direct || switches != nil {
		t.Errorf("direct = %v %v", direct, switches)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown directive":    "frobnicate x\n",
		"device without name":  "router\n",
		"bad device name":      "router a.b\n",
		"duplicate device":     "router a\nrouter a\n",
		"bad endpoint":         "router a\nlink a b.0\n",
		"unknown device":       "router a\nlink a.0 ghost.1\n",
		"bad generator port":   "generator g\nrouter r\nlink g.5 r.0\n",
		"bad router port":      "generator g\nrouter r\nlink g.tx r.7\n",
		"bad sink port":        "generator g\nsink s\nlink g.tx s.1\n",
		"bad switch port":      "generator g\nswitch sw ports=2\nlink g.tx sw.2\n",
		"switch port alias":    "generator g\nswitch sw ports=7\nsink s\nlink g.tx sw.03\nlink sw.3 s.0\n",
		"double wiring":        "generator g\nrouter r\nsink s\nlink g.tx r.0\nlink s.0 r.0\n",
		"self link":            "router r\nlink r.0 r.0\n",
		"bad param":            "router r extra\n",
		"duplicate param":      "router r a=1 a=2\n",
		"missing link operand": "link a.0\n",
		// Malformed values are errors, not defaults.
		"non-numeric seed":       "router r model=vm seed=abc\n",
		"negative router seed":   "router r model=vm seed=-1\n",
		"seed beyond uint64":     "router r model=vm seed=18446744073709551616\n",
		"bool other than true":   "generator g hw=maybe\n",
		"bool spelled 1":         "generator g hw=1\n",
		"forwarding spelled yes": "router r forwarding=yes\n",
		"non-numeric ports":      "switch sw ports=x\n",
		"negative ports":         "switch sw ports=-3\n",
		"zero ports":             "switch sw ports=0\n",
		"ports beyond the cap":   "switch sw ports=1000000000\n",
		"negative link seed":     "generator g\nsink s\nlink g.tx s.0 seed=-1\n",
		"NaN rate":               "generator g\nsink s\nlink g.tx s.0 rate=NaN\n",
		"infinite rate":          "generator g\nsink s\nlink g.tx s.0 rate=Inf\n",
		"NaN loss":               "generator g\nsink s\nlink g.tx s.0 loss=NaN\n",
		// Keys the kind does not define are errors, not ignored typos.
		"unknown router key":     "router r colour=red\n",
		"router key on a sink":   "sink s hw=true\n",
		"model on a generator":   "generator g model=vm\n",
		"unknown link key":       "generator g\nsink s\nlink g.tx s.0 mtu=9000\n",
		"switch key on a link":   "generator g\nsink s\nlink g.tx s.0 ports=2\n",
		"unknown generator prof": "generator g profile=warp10\n",
	}
	for name, input := range cases {
		if _, err := Parse([]byte(input)); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		} else if _, ok := err.(*ParseError); !ok {
			t.Errorf("%s: error type %T", name, err)
		}
	}
}

func TestDirectlyWiredFlagsSwitches(t *testing.T) {
	spec, err := Parse([]byte(`
generator g
switch sw1 ports=2 delay=300ns
sink s
link g.tx sw1.0
link sw1.1 s.0
`))
	if err != nil {
		t.Fatal(err)
	}
	direct, switches := spec.DirectlyWired()
	if direct || len(switches) != 1 || switches[0] != "sw1" {
		t.Errorf("direct = %v %v", direct, switches)
	}
}

func TestRenderRoundTrip(t *testing.T) {
	spec, err := Parse([]byte(caseStudyTopo))
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(spec.Render())
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v\n%s", err, spec.Render())
	}
	if len(again.Devices) != len(spec.Devices) || len(again.Links) != len(spec.Links) {
		t.Errorf("round trip lost content")
	}
}

func TestBuildCaseStudyAndMeasure(t *testing.T) {
	spec, err := Parse([]byte(caseStudyTopo))
	if err != nil {
		t.Fatal(err)
	}
	n, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	gen := n.Generators["lg"]
	if gen == nil || n.Routers["dut"] == nil {
		t.Fatalf("network = %+v, want generator lg and router dut", n)
	}
	res, err := gen.Run(loadgen.RunConfig{
		Template: packet.UDPTemplate{
			SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
			FrameSize: 64,
		},
		RatePPS:  100_000,
		Duration: sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RxPackets != 100_000 {
		t.Errorf("rx = %d, want 100000 (drop-free below capacity)", res.RxPackets)
	}
	// A built bare-metal router saturates at ~1.75 Mpps, like the
	// hand-wired case study.
	res, err = gen.Run(loadgen.RunConfig{
		Template: packet.UDPTemplate{
			SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
			FrameSize: 64,
		},
		RatePPS:  2_200_000,
		Duration: sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RxRatePPS < 1.70e6 || res.RxRatePPS > 1.82e6 {
		t.Errorf("plateau = %.0f", res.RxRatePPS)
	}
}

func TestBuildSwitchedAndLossy(t *testing.T) {
	spec, err := Parse([]byte(`
generator g profile=osnt
switch sw ports=2 delay=15ns
sink s
link g.tx sw.0 rate=10G loss=0.1 seed=3
link sw.1 s.0
`))
	if err != nil {
		t.Fatal(err)
	}
	n, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Generators["g"].Run(loadgen.RunConfig{
		Template: packet.UDPTemplate{
			SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
			FrameSize: 64,
		},
		RatePPS:  50_000,
		Duration: sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One-way topology: the wire loss shows up at the sink, not at the
	// generator's (unwired) RX port.
	loss := 1 - float64(n.Sinks["s"].Packets)/float64(res.TxPackets)
	if loss < 0.08 || loss > 0.12 {
		t.Errorf("loss = %.4f, want ~0.10", loss)
	}
	if sw := n.Switches["sw"]; !sw.Port(0).Connected() || !sw.Port(1).Connected() {
		t.Error("switch ports not wired")
	}
}

func TestBuildVMRouter(t *testing.T) {
	spec, err := Parse([]byte(`
generator g hw=false
router r model=vm seed=5 hw=false
link g.tx r.0
link r.1 g.rx
`))
	if err != nil {
		t.Fatal(err)
	}
	n, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Generators["g"].Run(loadgen.RunConfig{
		Template: packet.UDPTemplate{
			SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
			FrameSize: 64,
		},
		RatePPS:  200_000,
		Duration: sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// VM model: heavy loss at 200 kpps.
	if res.RxRatePPS > 90_000 {
		t.Errorf("VM forwarded %.0f pps, implausibly high", res.RxRatePPS)
	}
	if res.LatencyAvailable {
		t.Error("latency available without hardware timestamps")
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []string{
		"generator g profile=warp10\n",                        // unknown profile
		"router r model=quantum\n",                            // unknown model
		"switch sw ports=2 delay=300\n",                       // bad duration
		"generator g\nsink s\nlink g.tx s.0 rate=fast\n",      // bad rate
		"generator g\nsink s\nlink g.tx s.0 loss=2\n",         // bad loss
		"generator g\nsink s\nlink g.tx s.0 prop=yesterday\n", // bad prop
	}
	for _, input := range cases {
		spec, err := Parse([]byte(input))
		if err != nil {
			continue // parse-level rejection also fine
		}
		if _, err := spec.Build(); err == nil {
			t.Errorf("built invalid topology %q", input)
		}
	}
}

// TestBuildChecksTypedSpecs: a Spec assembled in code, never parsed, is held
// to the text format's rules — Build returns the *ParseError Parse would.
func TestBuildChecksTypedSpecs(t *testing.T) {
	gen := DeviceSpec{Kind: KindGenerator, Name: "g"}
	rtr := DeviceSpec{Kind: KindRouter, Name: "r"}
	cases := map[string]Spec{
		"bad seed":         {Devices: []DeviceSpec{{Kind: KindRouter, Name: "r", Params: map[string]string{"model": "vm", "seed": "abc"}}}},
		"unknown profile":  {Devices: []DeviceSpec{{Kind: KindGenerator, Name: "g", Params: map[string]string{"profile": "warp10"}}}},
		"duplicate device": {Devices: []DeviceSpec{rtr, rtr}},
		"unknown device":   {Devices: []DeviceSpec{gen}, Links: []LinkSpec{{A: Endpoint{"g", "tx"}, B: Endpoint{"ghost", "0"}}}},
		"bad router port":  {Devices: []DeviceSpec{gen, rtr}, Links: []LinkSpec{{A: Endpoint{"g", "tx"}, B: Endpoint{"r", "7"}}}},
		"double wiring": {Devices: []DeviceSpec{gen, rtr}, Links: []LinkSpec{
			{A: Endpoint{"g", "tx"}, B: Endpoint{"r", "0"}}, {A: Endpoint{"g", "rx"}, B: Endpoint{"r", "0"}},
		}},
		"bad link rate": {Devices: []DeviceSpec{gen, rtr}, Links: []LinkSpec{
			{A: Endpoint{"g", "tx"}, B: Endpoint{"r", "0"}, Params: map[string]string{"rate": "fast"}},
		}},
	}
	for name, spec := range cases {
		_, err := spec.Build()
		if _, ok := err.(*ParseError); !ok {
			t.Errorf("%s: Build returned %v, want a *ParseError", name, err)
		}
	}
}

// TestBuildSeedsAreUint64: a seed above MaxInt64 — every chain router past
// the first gets one — reaches the jitter model instead of falling back to
// the default seed 1.
func TestBuildSeedsAreUint64(t *testing.T) {
	rx := func(seed string) int64 {
		spec, err := Parse([]byte("generator g hw=false\nrouter r model=vm hw=false seed=" + seed + "\nlink g.tx r.0\nlink r.1 g.rx\n"))
		if err != nil {
			t.Fatal(err)
		}
		n, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := n.Generators["g"].Run(loadgen.RunConfig{
			Template: packet.UDPTemplate{
				SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
				FrameSize: 64,
			},
			RatePPS:  200_000,
			Duration: sim.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.RxPackets
	}
	if max, one := rx("18446744073709551615"), rx("1"); max == one {
		t.Errorf("seed=MaxUint64 and seed=1 both forward %d packets: the seed did not reach the model", max)
	}
}

func TestParseRate(t *testing.T) {
	cases := map[string]float64{
		"10G": 10e9, "1g": 1e9, "100M": 100e6, "1T": 1e12, "25k": 25e3, "1e9": 1e9, "42": 42,
	}
	for in, want := range cases {
		got, err := parseRate(in)
		if err != nil || got != want {
			t.Errorf("parseRate(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "G", "-1G", "0"} {
		if _, err := parseRate(bad); err == nil {
			t.Errorf("parseRate(%q) succeeded", bad)
		}
	}
}

func TestParseNeverPanicsProperty(t *testing.T) {
	inputs := []string{
		"link", "link .", "link a. .b", "generator", "switch s ports=x",
		strings.Repeat("router r\n", 3), "\x00\x01\x02", "link a.b c.d e=f g",
	}
	for _, in := range inputs {
		func() {
			defer func() {
				if recover() != nil {
					t.Errorf("panic on %q", in)
				}
			}()
			_, _ = Parse([]byte(in))
		}()
	}
}

// FuzzParseTopology: no input panics Parse; every accepted spec's canonical
// form re-parses to itself; and an accepted spec builds.
func FuzzParseTopology(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			if _, ok := err.(*ParseError); !ok {
				t.Fatalf("error type %T: %v", err, err)
			}
			return
		}
		canon := spec.Render()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, canon)
		}
		if round := again.Render(); !bytes.Equal(round, canon) {
			t.Fatalf("canonical form is not a fixed point:\n%s\nre-renders as\n%s", canon, round)
		}
		if _, err := spec.Build(); err != nil {
			t.Fatalf("accepted spec does not build: %v\n%s", err, canon)
		}
	})
}
