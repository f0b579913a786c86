package pos_test

// End-to-end causal tracing: a queue-dispatched 2-replica campaign must
// stitch into ONE trace — the controller's campaign span and both replica
// lanes all under the submitting posctl invocation's trace ID, with the
// journaled admission stamp as the queue wait — and the assembled timeline
// must attribute every wall-clock millisecond to a phase. The -baseline drift check must flag an injected slowdown and stay
// quiet against a re-assembly of the same archive.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pos/internal/eventlog"
	"pos/internal/results"
	"pos/internal/sched"
	"pos/internal/telemetry"
	"pos/internal/timeline"
)

// runTracedCampaign dispatches a 2-replica campaign the way the queue does —
// pending submitter traceparent plus admission stamps on the context — and
// returns the experiment directory holding the archived spans.json.
func runTracedCampaign(t *testing.T, tp string, submitted time.Time, delay time.Duration) string {
	t.Helper()
	dir := t.TempDir()
	store, err := results.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := telemetry.ContextWithTraceParent(context.Background(), tp)
	ctx = eventlog.WithAdmission(ctx, eventlog.Admission{
		SubmissionID: "7", User: "alice",
		Submitted: submitted, Admitted: time.Now(),
	})
	c := &sched.Campaign{Replicas: []sched.Replica{
		benchReplica("alpha", "n0", delay),
		benchReplica("beta", "n1", delay),
	}}
	sum, err := c.Run(ctx, store)
	if err != nil || sum.FailedRuns != 0 {
		t.Fatalf("campaign: sum=%+v err=%v", sum, err)
	}
	archives := findArtifacts(t, dir, "spans.json")
	if len(archives) != 1 {
		t.Fatalf("spans.json archives = %v, want exactly one", archives)
	}
	return filepath.Dir(archives[0])
}

func TestQueueSubmittedCampaignStitchesOneTrace(t *testing.T) {
	telemetry.Default.SetEnabled(true)
	// The posctl side of the story: the submit command's own trace, finished
	// as soon as the submit RPC returns — BEFORE the campaign runs. Only its
	// traceparent and the admission stamp reach the campaign's record.
	submit := telemetry.NewTrace("posctl:submit")
	tp := submit.Root().TraceParent()
	submit.Finish()
	submitted := time.Now().Add(-15 * time.Second)

	expdir := runTracedCampaign(t, tp, submitted, 2*time.Millisecond)

	tl, err := timeline.Assemble(expdir)
	if err != nil {
		t.Fatal(err)
	}

	// ONE trace: the controller adopted the submitter's identity, and every
	// archived span — campaign root, both replica lanes — is under it.
	if tl.TraceID != submit.ID() {
		t.Fatalf("timeline trace = %s, want submitter's %s", tl.TraceID, submit.ID())
	}
	// The analysis anchors on the campaign span: the campaign's wall clock,
	// not the submit RPC's, is the analyzed interval.
	if tl.Root != "campaign:parallel-bench" {
		t.Fatalf("timeline root = %q, want the campaign span", tl.Root)
	}
	recs, err := timeline.ReadSpans(expdir)
	if err != nil {
		t.Fatal(err)
	}
	lanes := map[string]bool{}
	for _, r := range recs {
		if r.TraceID != submit.ID() {
			t.Errorf("span %q trace = %q, want %q", r.Name, r.TraceID, submit.ID())
		}
		lanes[r.Name] = true
	}
	for _, want := range []string{"campaign:parallel-bench", "replica:alpha", "replica:beta"} {
		if !lanes[want] {
			t.Errorf("stitched archive missing span %q", want)
		}
	}
	// One process wrote the archive: its lines name no process lane.
	raw, err := os.ReadFile(filepath.Join(expdir, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"proc"`)) {
		t.Errorf("spans.json carries a process lane:\n%s", raw)
	}

	// Attribution that adds up: phase totals within 2% of wall clock (they
	// are exact by construction; 2% is the acceptance margin).
	var phaseTotal float64
	for _, p := range tl.Phases {
		phaseTotal += p.MS
	}
	if tl.WallMS <= 0 || phaseTotal < tl.WallMS*0.98 || phaseTotal > tl.WallMS*1.02 {
		t.Errorf("phases sum %v ms, wall %v ms — attribution does not add up", phaseTotal, tl.WallMS)
	}

	// The queue wait folded in from the journaled admission record.
	if tl.QueueWaitMS < 14_000 || tl.QueueWaitMS > 16_000 {
		t.Errorf("queue wait = %v ms, want ~15000", tl.QueueWaitMS)
	}
	if tl.QueueUser != "alice" {
		t.Errorf("queue user = %q, want alice", tl.QueueUser)
	}

	// Both replica lanes contribute runs.
	if len(tl.Replicas) != 2 {
		t.Fatalf("replicas = %+v, want 2 lanes", tl.Replicas)
	}
	for _, r := range tl.Replicas {
		if r.Runs == 0 {
			t.Errorf("replica %s attributed no runs", r.Name)
		}
	}

	// Baseline check against the same archive: byte-identical inputs are
	// quiet at any threshold.
	again, err := timeline.Assemble(expdir)
	if err != nil {
		t.Fatal(err)
	}
	if d := timeline.Compare(tl, again, 0); d.Flagged {
		t.Errorf("drift flagged between identical assemblies: %+v", d)
	}
}

func TestBaselineDriftFlagsInjectedSlowdown(t *testing.T) {
	telemetry.Default.SetEnabled(true)
	run := func(delay time.Duration) *timeline.Timeline {
		tr := telemetry.NewTrace("posctl:submit")
		expdir := runTracedCampaign(t, tr.Root().TraceParent(), time.Now(), delay)
		tl, err := timeline.Assemble(expdir)
		if err != nil {
			t.Fatal(err)
		}
		return tl
	}
	base := run(2 * time.Millisecond)
	// The injected slowdown: every measurement takes 15x longer — the shape
	// of a DuT misconfiguration that posctl analyze -baseline must catch.
	slow := run(30 * time.Millisecond)

	d := timeline.Compare(base, slow, 0.25)
	if !d.Flagged {
		t.Fatalf("15x measurement slowdown not flagged: %+v", d)
	}
	found := false
	for _, p := range d.Phases {
		if p.Phase == "measurement" && p.Flagged {
			found = true
			if p.Ratio < 2 {
				t.Errorf("measurement ratio = %v, want well above threshold", p.Ratio)
			}
		}
	}
	if !found {
		t.Errorf("slowdown not attributed to the measurement phase: %+v", d.Phases)
	}
}
