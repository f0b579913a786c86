package casestudy

import (
	"context"
	"os"
	"strings"
	"testing"

	"pos/internal/core"
	"pos/internal/expfile"
	"pos/internal/results"
	"pos/internal/topo"
)

// repoExperimentDir is the canonical published experiment shipped with the
// repository — the equivalent of the paper's pos-artifacts/experiment tree.
const repoExperimentDir = "../../experiments/linux-router"

func TestShippedExperimentDirLoads(t *testing.T) {
	exp, err := expfile.Load(repoExperimentDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Name != "linux-router" || exp.User != "user" {
		t.Errorf("meta = %s/%s", exp.Name, exp.User)
	}
	if core.NumRuns(exp.LoopVars) != 60 {
		t.Errorf("runs = %d, want 60 (Appendix A)", core.NumRuns(exp.LoopVars))
	}
	if len(exp.Hosts) != 2 {
		t.Fatalf("hosts = %d", len(exp.Hosts))
	}
}

func TestShippedExperimentMatchesInCodeDefinition(t *testing.T) {
	// The on-disk artifact and the in-code definition must stay in sync:
	// both are "the experiment", published in two forms.
	onDisk, err := expfile.Load(repoExperimentDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := New(BareMetal)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	inCode := topo.Experiment(PaperSweep())

	byRole := map[string]core.HostSpec{}
	for _, h := range onDisk.Hosts {
		byRole[h.Role] = h
	}
	for _, want := range inCode.Hosts {
		got, ok := byRole[want.Role]
		if !ok {
			t.Fatalf("role %s missing on disk", want.Role)
		}
		if got.Setup != want.Setup {
			t.Errorf("%s setup differs:\n--- disk ---\n%s--- code ---\n%s", want.Role, got.Setup, want.Setup)
		}
		if got.Measurement != want.Measurement {
			t.Errorf("%s measurement differs:\n--- disk ---\n%s--- code ---\n%s", want.Role, got.Measurement, want.Measurement)
		}
		if got.Node != want.Node || got.Image != want.Image {
			t.Errorf("%s binding = %s/%s, want %s/%s", want.Role, got.Node, got.Image, want.Node, want.Image)
		}
	}
	if core.NumRuns(onDisk.LoopVars) != core.NumRuns(inCode.LoopVars) {
		t.Errorf("run counts differ: %d vs %d", core.NumRuns(onDisk.LoopVars), core.NumRuns(inCode.LoopVars))
	}
}

func TestShippedExperimentRunsEndToEnd(t *testing.T) {
	exp, err := expfile.Load(repoExperimentDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the sweep for test time; the definition itself is untouched.
	exp.LoopVars = []core.LoopVar{
		{Name: "pkt_sz", Values: []string{"64"}},
		{Name: "pkt_rate", Values: []string{"10000", "300000"}},
	}
	exp.GlobalVars["runtime"] = "1"
	topo, err := New(BareMetal)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	store, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := topo.Testbed.Runner().Run(context.Background(), exp, store)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalRuns != 2 || sum.FailedRuns != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	ids, _ := store.ListExperiments("user", "linux-router")
	rec, err := store.OpenExperiment("user", "linux-router", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	logData, err := rec.ReadRunArtifact(0, "vriga", "moongen.log")
	if err != nil || !strings.Contains(string(logData), "RX:") {
		t.Errorf("moongen log = %q, %v", logData, err)
	}
}

// TestShippedTopologyIsTheBareMetalRig: the shipped topology.txt is not a
// drawing of the rig but the rig itself — its canonical form is the spec
// New(BareMetal) builds — and it is directly wired (R2).
func TestShippedTopologyIsTheBareMetalRig(t *testing.T) {
	data, err := os.ReadFile(repoExperimentDir + "/topology.txt")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := topo.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if direct, switches := spec.DirectlyWired(); !direct {
		t.Errorf("shipped topology uses switches: %v — violates R2", switches)
	}
	rig, err := New(BareMetal)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	if got, want := string(spec.Render()), string(rig.Wiring()); got != want {
		t.Errorf("shipped topology renders as\n%s\nNew(BareMetal) is wired as\n%s", got, want)
	}
}
