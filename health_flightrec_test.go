package pos_test

// End-to-end health-layer tests, wired the way posctl serve wires its
// supervisor: a process-wide watchdog over the campaign-progress probe and a
// flight recorder tailing the campaign's event pipeline. A campaign whose
// measurement hangs past the stall deadline must trip the watchdog once and
// yield a flight record; every run — stalled campaign or healthy one — must
// archive its resources.json runtime attribution, and no flight record ever
// lands in the experiment.

import (
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pos/internal/eventlog"
	"pos/internal/health"
	"pos/internal/results"
	"pos/internal/sched"
	"pos/internal/sim"
	"pos/internal/telemetry"
)

// supervisor is posctl serve's health wiring around one event pipeline: the
// watchdog runs the campaign-progress probe over the process-wide metrics,
// and each trip captures a flight record from the recorder tailing events.
type supervisor struct {
	events *eventlog.Pipeline
	wd     *health.Watchdog

	mu      sync.Mutex
	records []health.FlightRecord
}

func startSupervisor(t *testing.T, stallDeadline time.Duration) *supervisor {
	t.Helper()
	s := &supervisor{events: eventlog.NewPipeline(), wd: health.NewWatchdog(10 * time.Millisecond)}
	rec := health.NewRecorder(0, telemetry.Default)
	t.Cleanup(rec.Attach(s.events))
	s.wd.SetEvents(s.events)
	s.wd.SetOnTrip(func(ps health.ProbeState) {
		fr := rec.Capture(health.TriggerWatchdog, ps.Name, ps.Detail)
		s.mu.Lock()
		s.records = append(s.records, fr)
		s.mu.Unlock()
	})
	s.wd.Register(health.CampaignProgress(telemetry.Default, stallDeadline))
	s.wd.Start()
	t.Cleanup(s.wd.Stop)
	return s
}

// flightRecords stops the watchdog and returns every record it captured.
func (s *supervisor) flightRecords() []health.FlightRecord {
	s.wd.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]health.FlightRecord(nil), s.records...)
}

// findArtifacts walks an experiment store root and returns every file with
// the given base name — run layout details stay out of the assertions.
func findArtifacts(t *testing.T, root, name string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && d.Name() == name {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// slowSweep is a two-run sweep on a replica whose every measurement takes
// delay of wall clock — long enough for a short stall deadline to expire.
func slowReplica(name, node string, delay time.Duration) sched.Replica {
	rep := benchReplica(name, node, delay)
	rep.Experiment.LoopVars[0].Values = rep.Experiment.LoopVars[0].Values[:2]
	return rep
}

func TestHealthWatchdogTripDumpsFlightRecord(t *testing.T) {
	telemetry.Default.SetEnabled(true)
	dir := t.TempDir()
	store, err := results.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sup := startSupervisor(t, 100*time.Millisecond)

	// A deterministic fault plan wedges the replica's first measurement
	// (exec occurrence 1 is the session setup) until the runner's 600 ms run
	// timeout cancels it. No run completes for far longer than the 100 ms
	// stall deadline while one is in flight, so the probe must trip while
	// the hang is still in progress — and the campaign must still complete
	// once the retry succeeds.
	rep := slowReplica("alpha", "n0", 2*time.Millisecond)
	rep.Runner.RunTimeout = 600 * time.Millisecond
	rep.Runner.InjectFaults(sim.NewFaultInjector(map[string]sim.FaultPlan{
		"n0": {HangExecs: []int{2}},
	}))
	c := &sched.Campaign{
		Replicas:    []sched.Replica{rep},
		MaxAttempts: 2,
		Events:      sup.events,
	}
	sum, err := c.Run(context.Background(), store)
	if err != nil || sum.FailedRuns != 0 {
		t.Fatalf("campaign: sum=%+v err=%v", sum, err)
	}
	retried := 0
	for _, rec := range sum.Records {
		if rec.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("fault plan injected no hang")
	}

	recs := sup.flightRecords()
	if len(recs) != 1 {
		t.Fatalf("flight records = %d, want exactly one trip", len(recs))
	}
	data, err := recs[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	fr, err := health.DecodeFlightRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Trigger != health.TriggerWatchdog {
		t.Errorf("trigger = %q, want %s", fr.Trigger, health.TriggerWatchdog)
	}
	if fr.Probe != "campaign-progress" {
		t.Errorf("probe = %q", fr.Probe)
	}
	if fr.Detail == "" || fr.At.IsZero() {
		t.Errorf("record header incomplete: %+v", fr)
	}
	// The recorder tailed the campaign's own pipeline: the record holds
	// what the campaign did up to the stall.
	hung := false
	for _, ev := range fr.Events {
		hung = hung || (ev.Replica == "alpha" && ev.Run == 0)
	}
	if len(fr.Events) == 0 || !hung {
		t.Errorf("flight record carries no event of the hung run: %+v", fr.Events)
	}
	if len(fr.Metrics.Metrics) == 0 {
		t.Error("flight record carries no metrics snapshot")
	}
	if !strings.Contains(fr.Goroutines, "goroutine ") {
		t.Error("flight record carries no goroutine dump")
	}
	if found := findArtifacts(t, dir, "flightrec.json"); len(found) != 0 {
		t.Errorf("flight record written into the experiment: %v", found)
	}

	// Every run still archived its runtime attribution.
	assertRunResources(t, dir, sum.TotalRuns)
}

func TestHealthyCampaignArchivesResourcesWithoutTrips(t *testing.T) {
	telemetry.Default.SetEnabled(true)
	dir := t.TempDir()
	store, err := results.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sup := startSupervisor(t, 10*time.Second)

	c := &sched.Campaign{
		Replicas: []sched.Replica{
			slowReplica("alpha", "n0", 2*time.Millisecond),
			slowReplica("beta", "n1", 2*time.Millisecond),
		},
		Events: sup.events,
	}
	sum, err := c.Run(context.Background(), store)
	if err != nil || sum.FailedRuns != 0 {
		t.Fatalf("campaign: sum=%+v err=%v", sum, err)
	}
	if recs := sup.flightRecords(); len(recs) != 0 {
		t.Fatalf("healthy campaign tripped the watchdog: %+v", recs)
	}
	assertRunResources(t, dir, sum.TotalRuns)
}

// assertRunResources checks that want runs archived a parseable resources.json
// attributing non-trivial wall clock to the run.
func assertRunResources(t *testing.T, root string, want int) {
	t.Helper()
	paths := findArtifacts(t, root, "resources.json")
	if len(paths) != want {
		t.Fatalf("resources.json files = %d, want %d (%v)", len(paths), want, paths)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var d telemetry.RuntimeDelta
		if err := json.Unmarshal(data, &d); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if d.WallSeconds <= 0 {
			t.Errorf("%s: wall_seconds = %g, want > 0", p, d.WallSeconds)
		}
		if d.StartedAt.IsZero() || d.FinishedAt.Before(d.StartedAt) {
			t.Errorf("%s: bad window %v..%v", p, d.StartedAt, d.FinishedAt)
		}
		if d.GoroutinesEnd == 0 {
			t.Errorf("%s: goroutine count missing", p)
		}
	}
}
