package testbed

import (
	"context"
	"strings"
	"testing"
	"time"

	"pos/internal/core"
	"pos/internal/image"
	"pos/internal/node"
	"pos/internal/results"
)

func newTB(t *testing.T) *Testbed {
	t.Helper()
	tb := New()
	t.Cleanup(tb.Close)
	if err := tb.Images.Add(image.DefaultDebianBuster()); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestAddNodeAndDuplicate(t *testing.T) {
	tb := newTB(t)
	h, err := tb.AddNode("vriga")
	if err != nil {
		t.Fatal(err)
	}
	if h.BMCAddr() == "" || h.ShellAddr() == "" {
		t.Error("control-plane addresses empty")
	}
	if _, err := tb.AddNode("vriga"); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := tb.Handle("ghost"); err == nil {
		t.Error("unknown handle returned")
	}
	if got := tb.Nodes(); len(got) != 1 || got[0] != "vriga" {
		t.Errorf("Nodes = %v", got)
	}
}

func TestHostLifecycleOverTCP(t *testing.T) {
	tb := newTB(t)
	if _, err := tb.AddNode("vriga"); err != nil {
		t.Fatal(err)
	}
	r := tb.Runner()
	h := r.Hosts["vriga"]
	if h.Name() != "vriga" {
		t.Errorf("Name = %s", h.Name())
	}
	if err := h.SetBoot("debian-buster", map[string]string{"hugepages": "4"}); err != nil {
		t.Fatal(err)
	}
	if err := h.Reboot(); err != nil {
		t.Fatal(err)
	}
	if err := h.DeployTools(); err != nil {
		t.Fatal(err)
	}
	out, err := h.Exec(context.Background(), "echo $BOOT_hugepages", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "4") {
		t.Errorf("output = %q", out)
	}
	// pos tools are live.
	out, err = h.Exec(context.Background(), "pos_set_var global k v\npos_get_var global k", nil)
	if err != nil {
		t.Fatalf("pos tools: %v (%s)", err, out)
	}
	if !strings.Contains(out, "v") {
		t.Errorf("output = %q", out)
	}
}

func TestBootHooksRunEachBoot(t *testing.T) {
	tb := newTB(t)
	h, err := tb.AddNode("vriga")
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	h.OnBoot(func(n *node.Node) error {
		calls++
		return n.RegisterCommand("domaintool", func(context.Context, *node.Node, []string, node.ErrWriter, node.ErrWriter) error {
			return nil
		})
	})
	r := tb.Runner()
	host := r.Hosts["vriga"]
	if err := host.SetBoot("debian-buster", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := host.Reboot(); err != nil {
			t.Fatal(err)
		}
		if err := host.DeployTools(); err != nil {
			t.Fatal(err)
		}
		if _, err := host.Exec(context.Background(), "domaintool", nil); err != nil {
			t.Fatalf("boot %d: domain tool missing: %v", i, err)
		}
	}
	if calls != 2 {
		t.Errorf("hook calls = %d, want 2", calls)
	}
}

func TestExecTimeoutPropagates(t *testing.T) {
	tb := newTB(t)
	if _, err := tb.AddNode("vriga"); err != nil {
		t.Fatal(err)
	}
	r := tb.Runner()
	host := r.Hosts["vriga"]
	host.SetBoot("debian-buster", nil)
	host.Reboot()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := host.Exec(ctx, "sleep_ms 60000", nil); err == nil {
		t.Error("deadline not propagated to the shell daemon")
	}
}

func TestEndToEndWorkflowOverTCP(t *testing.T) {
	// A miniature but complete experiment through real TCP control
	// channels: calendar, boot, tools, barriers, uploads, artifacts.
	tb := newTB(t)
	if _, err := tb.AddNode("vriga"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddNode("vtartu"); err != nil {
		t.Fatal(err)
	}
	store, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exp := &core.Experiment{
		Name:       "mini",
		User:       "alice",
		GlobalVars: core.Vars{"greeting": "hello"},
		LoopVars: []core.LoopVar{
			{Name: "x", Values: []string{"1", "2"}},
		},
		Hosts: []core.HostSpec{
			{
				Role: "a", Node: "vriga", Image: "debian-buster",
				Setup:       "echo setup $greeting\npos_sync ready 2",
				Measurement: "echo measuring x=$x\npos_upload note x was $x\npos_sync done 2",
			},
			{
				Role: "b", Node: "vtartu", Image: "debian-buster",
				Setup:       "pos_sync ready 2",
				Measurement: "pos_sync done 2",
			},
		},
		Duration: time.Hour,
	}
	runner := tb.Runner()
	sum, err := runner.Run(context.Background(), exp, store)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalRuns != 2 || sum.FailedRuns != 0 {
		t.Errorf("summary = %+v", sum)
	}
	ids, _ := store.ListExperiments("alice", "mini")
	if len(ids) != 1 {
		t.Fatalf("experiments = %v", ids)
	}
	e, err := store.OpenExperiment("alice", "mini", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	note, err := e.ReadRunArtifact(1, "vriga", "note")
	if err != nil || string(note) != "x was 2" {
		t.Errorf("note = %q, %v", note, err)
	}
	out, err := e.ReadRunArtifact(0, "vriga", "measurement.out")
	if err != nil || !strings.Contains(string(out), "measuring x=1") {
		t.Errorf("measurement.out = %q, %v", out, err)
	}
}

func TestRecoverabilityDuringExperiment(t *testing.T) {
	// A node that wedges during setup: the workflow reports the failure;
	// the out-of-band path still recovers the node afterwards.
	tb := newTB(t)
	h, err := tb.AddNode("vriga")
	if err != nil {
		t.Fatal(err)
	}
	store, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exp := &core.Experiment{
		Name: "crashy", User: "u",
		Hosts: []core.HostSpec{{
			Role: "a", Node: "vriga", Image: "debian-buster",
			Setup:       "crash",
			Measurement: "echo never",
		}},
		Duration: time.Hour,
	}
	runner := tb.Runner()
	if _, err := runner.Run(context.Background(), exp, store); err == nil {
		t.Fatal("wedged setup did not fail the experiment")
	}
	if h.Node.State() != node.StateWedged {
		t.Fatalf("state = %s", h.Node.State())
	}
	// Out-of-band recovery, then the node is usable again.
	host := runner.Hosts["vriga"]
	if err := host.Reboot(); err != nil {
		t.Fatalf("recovery reboot: %v", err)
	}
	if h.Node.State() != node.StateRunning {
		t.Errorf("state after recovery = %s", h.Node.State())
	}
}

// A context with less than a millisecond left used to reach the daemon as
// timeout_ms 0 — "no limit" — and an expired one as a negative value the
// daemon ignored: the nearly-dead context got an unbounded exec.
func TestExecHonoursSubMillisecondDeadline(t *testing.T) {
	tb := newTB(t)
	if _, err := tb.AddNode("vriga"); err != nil {
		t.Fatal(err)
	}
	h := tb.Runner().Hosts["vriga"]
	if err := h.SetBoot("debian-buster", nil); err != nil {
		t.Fatal(err)
	}
	if err := h.Reboot(); err != nil {
		t.Fatal(err)
	}
	for _, left := range []time.Duration{500 * time.Microsecond, -time.Second} {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(left))
		start := time.Now()
		_, err := h.Exec(ctx, "sleep_ms 200", nil)
		took := time.Since(start)
		cancel()
		if err == nil || !strings.Contains(err.Error(), "deadline exceeded") {
			t.Errorf("%v left: err = %v, want a deadline error", left, err)
		}
		if took > 100*time.Millisecond {
			t.Errorf("%v left: exec ran %v, the script's full 200 ms sleep", left, took)
		}
	}
}
