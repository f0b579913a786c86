package vpos

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pos/internal/casestudy"
	"pos/internal/eval"
	"pos/internal/eventlog"
	"pos/internal/sim"
)

func newManager(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func quickSweep() casestudy.SweepConfig {
	return casestudy.SweepConfig{Sizes: []int{64}, RatesPPS: []int{10_000, 30_000}, RuntimeSec: 1}
}

func TestCreateListDestroy(t *testing.T) {
	m := newManager(t)
	a, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Error("instance ids collide")
	}
	if a.Status() != StatusReady || len(a.Nodes) != 2 {
		t.Errorf("instance = %+v", a)
	}
	list := m.List()
	if len(list) != 2 || list[0].ID != a.ID {
		t.Errorf("list = %v", list)
	}
	if err := m.Destroy(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(a.ID); err == nil {
		t.Error("destroyed instance still visible")
	}
	if err := m.Destroy(a.ID); err == nil {
		t.Error("double destroy succeeded")
	}
}

func TestRunInsideInstance(t *testing.T) {
	m := newManager(t)
	inst, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Run(context.Background(), inst.ID, RunConfig{Sweep: quickSweep()})
	if err != nil {
		t.Fatal(err)
	}
	if info.TotalRuns != 2 || info.FailedRuns != 0 || info.ResultsDir == "" {
		t.Errorf("info = %+v", info)
	}
	if inst.Status() != StatusReady {
		t.Errorf("status = %s after run", inst.Status())
	}
	if got := inst.LastRun(); got == nil || got.TotalRuns != 2 {
		t.Errorf("last run = %+v", got)
	}
	// The results are a normal pos results tree, evaluable as usual.
	store, err := m.Results(inst.ID)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := store.ListExperiments("user", "linux-router-vpos")
	if err != nil || len(ids) != 1 {
		t.Fatalf("experiments = %v, %v", ids, err)
	}
	rec, err := store.OpenExperiment("user", "linux-router-vpos", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	runs, err := eval.LoadRuns(rec, "vriga", "moongen.log")
	if err != nil || len(runs) != 2 {
		t.Fatalf("runs = %d, %v", len(runs), err)
	}
	// Drop-free at these low rates.
	for _, r := range runs {
		if r.Report == nil || r.Report.RxMpps() == 0 {
			t.Errorf("run %d has no throughput", r.Run)
		}
	}
}

func TestRunOnDestroyedOrMissingInstance(t *testing.T) {
	m := newManager(t)
	inst, _ := m.Create()
	if err := m.Destroy(inst.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background(), inst.ID, RunConfig{Sweep: quickSweep()}); err == nil {
		t.Error("ran on a destroyed instance")
	}
	if _, err := m.Run(context.Background(), "ghost", RunConfig{}); err == nil {
		t.Error("ran on a missing instance")
	}
}

func TestInstancesAreIndependent(t *testing.T) {
	// Two instances get different seeds: overloaded results differ, like
	// two researchers' separate VMs.
	m := newManager(t)
	a, _ := m.Create()
	b, _ := m.Create()
	sweep := casestudy.SweepConfig{Sizes: []int{64}, RatesPPS: []int{250_000}, RuntimeSec: 1}
	ia, err := m.Run(context.Background(), a.ID, RunConfig{Sweep: sweep})
	if err != nil {
		t.Fatal(err)
	}
	ib, err := m.Run(context.Background(), b.ID, RunConfig{Sweep: sweep})
	if err != nil {
		t.Fatal(err)
	}
	ra := rxOf(t, m, a.ID)
	rb := rxOf(t, m, b.ID)
	if ra == rb {
		t.Errorf("independent instances produced identical overloaded results (%v)", ra)
	}
	_ = ia
	_ = ib
}

func rxOf(t *testing.T, m *Manager, id string) float64 {
	t.Helper()
	store, err := m.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := store.ListExperiments("user", "linux-router-vpos")
	rec, err := store.OpenExperiment("user", "linux-router-vpos", ids[len(ids)-1])
	if err != nil {
		t.Fatal(err)
	}
	runs, err := eval.LoadRuns(rec, "vriga", "moongen.log")
	if err != nil || len(runs) == 0 || runs[0].Report == nil {
		t.Fatalf("runs = %v, %v", runs, err)
	}
	return runs[0].Report.RxMpps()
}

func TestHTTPServiceEndToEnd(t *testing.T) {
	m := newManager(t)
	srv, err := Serve(m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())

	inst, err := c.Create()
	if err != nil {
		t.Fatal(err)
	}
	if inst.Status != StatusReady {
		t.Errorf("created = %+v", inst)
	}
	list, err := c.List()
	if err != nil || len(list) != 1 {
		t.Errorf("list = %v, %v", list, err)
	}
	info, err := c.Run(inst.ID, []int{64}, []int{10_000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if info.TotalRuns != 1 || info.FailedRuns != 0 {
		t.Errorf("run info = %+v", info)
	}
	got, err := c.Get(inst.ID)
	if err != nil || got.LastRun == nil || got.LastRun.TotalRuns != 1 {
		t.Errorf("get = %+v, %v", got, err)
	}
	if err := c.Destroy(inst.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(inst.ID); err == nil || !strings.Contains(err.Error(), "no instance") {
		t.Errorf("get after destroy: %v", err)
	}
	if _, err := c.Run("ghost", nil, nil, 0); err == nil {
		t.Error("ran on missing instance over HTTP")
	}
}

// TestRunWithFaultSchedule: a deterministic fault plan armed through
// RunConfig fires inside the instance — the scheduled measurement exec
// fails, the run is recorded as failed, and the instance returns to ready.
func TestRunWithFaultSchedule(t *testing.T) {
	m := newManager(t)
	inst, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	// Each node's exec occurrence 1 is its setup script; occurrence 2 is
	// the first measurement run. Both nodes fail it, so neither is left
	// waiting out the run_done barrier for a partner that never comes.
	info, err := m.Run(context.Background(), inst.ID, RunConfig{
		Sweep: quickSweep(),
		Faults: map[string]sim.FaultPlan{
			"vriga":  {FailExecs: []int{2}},
			"vtartu": {FailExecs: []int{2}},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "injected exec fault") {
		t.Fatalf("err = %v, want injected exec fault", err)
	}
	if info == nil || info.FailedRuns != 1 || info.Error == "" {
		t.Fatalf("info = %+v", info)
	}
	if inst.Status() != StatusReady {
		t.Errorf("status = %s after faulted run", inst.Status())
	}

	// Without a plan the same instance completes cleanly — faults are
	// per-execution, not sticky instance state.
	info, err = m.Run(context.Background(), inst.ID, RunConfig{Sweep: quickSweep()})
	if err != nil {
		t.Fatal(err)
	}
	if info.FailedRuns != 0 || info.TotalRuns != 2 {
		t.Errorf("info = %+v", info)
	}
}

// TestRunArchivesExecutionTrace: every instance execution ships its workflow
// record (the events/ journal) and its span tree (spans.json) next to the
// measurement results, and forwards the same events to the manager's shared
// pipeline without journaling anything else into it.
func TestRunArchivesExecutionTrace(t *testing.T) {
	m := newManager(t)
	shared := eventlog.NewPipeline()
	var mu sync.Mutex
	forwarded := 0
	stop := shared.Watch(0, func(eventlog.Event) {
		mu.Lock()
		forwarded++
		mu.Unlock()
	})
	m.SetEvents(shared)
	inst, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Run(context.Background(), inst.ID, RunConfig{Sweep: quickSweep()})
	if err != nil {
		t.Fatal(err)
	}
	stop()
	events, err := eventlog.Replay(filepath.Join(info.ResultsDir, eventlog.JournalDir))
	if err != nil {
		t.Fatal(err)
	}
	var booted, measured int
	for _, ev := range events {
		switch {
		case ev.Typ != eventlog.TypeProgress:
		case ev.Message == "booting hosts":
			booted++
		case ev.Phase == "measurement":
			measured++
		}
	}
	if booted != 1 || measured != 2 {
		t.Errorf("journal: %d boot and %d measurement events of %d, want 1 and 2", booted, measured, len(events))
	}
	if forwarded != len(events) {
		t.Errorf("shared pipeline saw %d events, the journal holds %d", forwarded, len(events))
	}
	store, err := m.Results(inst.ID)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := store.OpenExperiment("user", "linux-router-vpos", filepath.Base(info.ResultsDir))
	if err != nil {
		t.Fatal(err)
	}
	spans, err := exp.ReadExperimentArtifact("spans.json")
	if err != nil || len(spans) == 0 {
		t.Errorf("spans.json: %d bytes, %v", len(spans), err)
	}
	for _, gone := range []string{"experiment.log", "experiment-trace.json"} {
		if _, err := exp.ReadExperimentArtifact(gone); err == nil {
			t.Errorf("%s written beside the journal", gone)
		}
	}
}

// TestServerShutdownGraceful: Shutdown stops the listener and returns.
func TestServerShutdownGraceful(t *testing.T) {
	m := newManager(t)
	srv, err := Serve(m)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.Addr())
	if _, err := c.Create(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := c.List(); err == nil {
		t.Error("request after shutdown succeeded")
	}
}
