package pos_test

// End-to-end health-layer tests: a campaign whose measurements hang past the
// stall deadline must trip the watchdog and leave a flightrec.json next to
// the experiment's other artifacts, and every run — stalled campaign or
// healthy one — must archive its resources.json runtime attribution.

import (
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pos/internal/health"
	"pos/internal/results"
	"pos/internal/sched"
	"pos/internal/sim"
	"pos/internal/telemetry"
)

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
	wd := health.NewWatchdog(10 * time.Millisecond)
	wd.Start()
	defer wd.Stop()

	// A deterministic fault plan wedges the replica's first measurement
	// (exec occurrence 1 is the session setup) until the 600 ms run timeout
	// cancels it. The campaign's dispatch counter freezes for far longer
	// than the 100 ms stall deadline, so the probe must trip and dump the
	// flight record while the hang is still in progress — and the campaign
	// must still complete once the retry succeeds.
	rep := slowReplica("alpha", "n0", 2*time.Millisecond)
	rep.Runner.InjectFaults(sim.NewFaultInjector(map[string]sim.FaultPlan{
		"n0": {HangExecs: []int{2}},
	}))
	c := &sched.Campaign{
		Replicas:      []sched.Replica{rep},
		MaxAttempts:   2,
		RunTimeout:    600 * time.Millisecond,
		StallDeadline: 100 * time.Millisecond,
		Watchdog:      wd,
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

	recs := findArtifacts(t, dir, "flightrec.json")
	if len(recs) != 1 {
		t.Fatalf("flightrec.json files = %v, want exactly one", recs)
	}
	data, err := os.ReadFile(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	fr, err := health.DecodeFlightRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Trigger != "watchdog" {
		t.Errorf("trigger = %q, want watchdog", fr.Trigger)
	}
	if fr.Probe != "campaign:parallel-bench" {
		t.Errorf("probe = %q", fr.Probe)
	}
	if fr.Detail == "" || fr.At.IsZero() {
		t.Errorf("record header incomplete: %+v", fr)
	}
	if len(fr.Events) == 0 {
		t.Error("flight record carries no recent events")
	}
	if len(fr.Metrics.Metrics) == 0 {
		t.Error("flight record carries no metrics snapshot")
	}
	if !strings.Contains(fr.Goroutines, "goroutine ") {
		t.Error("flight record carries no goroutine dump")
	}
	// The record leads with the answer: a mid-flight critical path and
	// per-phase attribution computed from the still-open span tree.
	analysis, ok := fr.Analysis.(map[string]any)
	if !ok {
		t.Fatalf("flight record analysis = %T, want timeline summary", fr.Analysis)
	}
	if phases, ok := analysis["phases"].([]any); !ok || len(phases) == 0 {
		t.Errorf("flight record analysis has no phase attribution: %v", analysis["phases"])
	}
	if cp, ok := analysis["critical_path"].([]any); !ok || len(cp) == 0 {
		t.Errorf("flight record analysis has no critical path: %v", analysis["critical_path"])
	}

	// The campaign probe is unregistered once the campaign ends.
	if st := wd.Status(); len(st) != 0 {
		t.Errorf("probes left registered after campaign: %+v", st)
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
	wd := health.NewWatchdog(10 * time.Millisecond)
	wd.Start()
	defer wd.Stop()

	c := &sched.Campaign{
		Replicas: []sched.Replica{
			slowReplica("alpha", "n0", 2*time.Millisecond),
			slowReplica("beta", "n1", 2*time.Millisecond),
		},
		Watchdog:      wd,
		StallDeadline: 10 * time.Second,
	}
	sum, err := c.Run(context.Background(), store)
	if err != nil || sum.FailedRuns != 0 {
		t.Fatalf("campaign: sum=%+v err=%v", sum, err)
	}
	if recs := findArtifacts(t, dir, "flightrec.json"); len(recs) != 0 {
		t.Fatalf("healthy campaign dumped flight records: %v", recs)
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
