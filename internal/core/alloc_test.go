package core

import (
	"context"
	"testing"

	"pos/internal/hosttools"
	"pos/internal/telemetry"
)

// uploadingHost is the cheapest host that still exercises a run's whole
// recording path: its measurement "script" uploads one small artifact, as
// pos_upload does, and prints a line.
type uploadingHost struct {
	name string
	svc  *hosttools.Service
}

func (h *uploadingHost) Name() string                            { return h.name }
func (h *uploadingHost) SetBoot(string, map[string]string) error { return nil }
func (h *uploadingHost) Reboot() error                           { return nil }
func (h *uploadingHost) DeployTools() error                      { return nil }
func (h *uploadingHost) Exec(_ context.Context, script string, _ map[string]string) (string, error) {
	if script == "measure" {
		if err := h.svc.Upload(h.name, "counters.out", []byte("rx 1000 tx 1000\n")); err != nil {
			return "", err
		}
	}
	return "done\n", nil
}

// runOneAllocBudget is 15 % above the 270 objects one recorded run allocated
// when the budget was set (go1.24; two in-memory hosts, telemetry on: a span,
// two runtime samples, resources.json, metadata.json, four small artifacts,
// the manifest commit). The per-run path encodes its records by hand: with
// the manifest marshalled whole by reflection on every commit, as it once
// was, the same run costs 690.
const runOneAllocBudget = 310

func TestRunOneAllocationBudget(t *testing.T) {
	if !telemetry.Default.Enabled() {
		t.Skip("telemetry disabled")
	}
	svc := hosttools.NewService(nil)
	r := &Runner{
		Hosts: map[string]Host{
			"vriga":  &uploadingHost{name: "vriga", svc: svc},
			"vtartu": &uploadingHost{name: "vtartu", svc: svc},
		},
		Service: svc,
	}
	e := caseStudyExperiment()
	for i := range e.Hosts {
		e.Hosts[i].Measurement = "measure"
	}
	ctx, tr := r.ensureTrace(context.Background(), "alloc-budget")
	if tr == nil {
		t.Fatal("no trace: the budget covers the span a run records")
	}
	sess, err := r.Prepare(ctx, e, storeAt(t))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	combos, err := CrossProduct(e.LoopVars)
	if err != nil {
		t.Fatal(err)
	}
	// Appendix A's 60 runs. Each is flushed before the next starts, so the
	// count includes the manifest commit a run causes — deterministically,
	// where the flusher's own 2 ms window would group a varying number.
	const runs = 60
	run := 0
	perRun := testing.AllocsPerRun(runs-1, func() {
		if _, err := sess.RunOne(ctx, run, runs, 1, combos[run%len(combos)]); err != nil {
			t.Fatal(err)
		}
		if err := sess.Results().Sync(); err != nil {
			t.Fatal(err)
		}
		run++
	})
	t.Logf("RunOne: %.0f allocations per run (budget %d)", perRun, runOneAllocBudget)
	if perRun > runOneAllocBudget {
		t.Errorf("RunOne allocates %.0f objects per run, budget %d", perRun, runOneAllocBudget)
	}
}
