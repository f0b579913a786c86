package timeline

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pos/internal/eventlog"
	"pos/internal/telemetry"
)

var epoch = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// rec builds a synthetic stitched span record; offsets are seconds from epoch.
func rec(id int, spanID, parentSpanID, proc, name string, from, to float64) telemetry.SpanRecord {
	return telemetry.SpanRecord{
		ID:           id,
		TraceID:      "4bf92f3577b34da6a3ce929d0e0e4736",
		SpanID:       spanID,
		ParentSpanID: parentSpanID,
		Proc:         proc,
		Name:         name,
		Start:        epoch.Add(time.Duration(from * float64(time.Second))),
		End:          epoch.Add(time.Duration(to * float64(time.Second))),
	}
}

// campaignRecords is a 2-replica campaign shaped like the real controller
// emits it: a controller-side campaign root, boot, replica lanes with runs
// (one retried), eval and publish.
func campaignRecords() []telemetry.SpanRecord {
	return []telemetry.SpanRecord{
		rec(1, "aaaaaaaaaaaaaaa1", "", "controller", "campaign:x", 0, 100),
		rec(2, "aaaaaaaaaaaaaaa2", "aaaaaaaaaaaaaaa1", "controller", "boot", 0, 10),
		rec(3, "aaaaaaaaaaaaaaa3", "aaaaaaaaaaaaaaa1", "controller", "replica:a", 10, 90),
		rec(4, "aaaaaaaaaaaaaaa4", "aaaaaaaaaaaaaaa3", "controller", "setup", 10, 20),
		rec(5, "aaaaaaaaaaaaaaa5", "aaaaaaaaaaaaaaa3", "controller", "run 1", 20, 45),
		rec(6, "aaaaaaaaaaaaaaa6", "aaaaaaaaaaaaaaa3", "controller", "run 2", 50, 70),
		// Second attempt of run 2: a retry on the same lane.
		rec(7, "aaaaaaaaaaaaaaa7", "aaaaaaaaaaaaaaa3", "controller", "run 2", 72, 90),
		rec(8, "aaaaaaaaaaaaaaa8", "aaaaaaaaaaaaaaa1", "controller", "eval", 90, 96),
		rec(9, "aaaaaaaaaaaaaaa9", "aaaaaaaaaaaaaaa1", "controller", "publish", 96, 100),
	}
}

func phaseMS(sum *Summary) map[string]float64 {
	out := make(map[string]float64)
	for _, p := range sum.Phases {
		out[p.Phase] = p.MS
	}
	return out
}

// TestCriticalPathPartitionsWallClock: the acceptance criterion — per-phase
// totals sum to the campaign wall clock (exactly, not within 2%).
func TestCriticalPathPartitionsWallClock(t *testing.T) {
	sum := Summarize(campaignRecords())
	if sum.WallMS != 100_000 {
		t.Fatalf("wall = %v ms, want 100000", sum.WallMS)
	}
	var segTotal, phaseTotal float64
	for _, s := range sum.CriticalPath {
		segTotal += s.DurMS
	}
	for _, p := range sum.Phases {
		phaseTotal += p.MS
	}
	if math.Abs(segTotal-sum.WallMS) > 1e-6 || math.Abs(phaseTotal-sum.WallMS) > 1e-6 {
		t.Errorf("segments sum %v, phases sum %v, wall %v — must partition exactly",
			segTotal, phaseTotal, sum.WallMS)
	}
	// Contiguity: each segment starts where the previous ended.
	cursor := 0.0
	for _, s := range sum.CriticalPath {
		if math.Abs(s.StartMS-cursor) > 1e-6 {
			t.Fatalf("segment %q starts at %v, cursor %v — gap or overlap", s.Span, s.StartMS, cursor)
		}
		cursor += s.DurMS
	}
}

func TestPhaseAttribution(t *testing.T) {
	sum := Summarize(campaignRecords())
	if sum.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || sum.Root != "campaign:x" {
		t.Fatalf("root identity = %q/%q", sum.TraceID, sum.Root)
	}
	got := phaseMS(sum)
	want := map[string]float64{
		PhaseBoot:        10_000, // boot 0-10
		PhaseSetup:       10_000, // setup 10-20
		PhaseMeasurement: 45_000, // run 1 (25s) + run 2 first attempt (20s)
		PhaseRetry:       18_000, // run 2 second attempt 72-90
		PhaseIdle:        7_000,  // replica:a self time 45-50 and 70-72
		PhaseEval:        6_000,
		PhasePublish:     4_000,
	}
	for phase, ms := range want {
		if math.Abs(got[phase]-ms) > 1e-6 {
			t.Errorf("phase %s = %v ms, want %v", phase, got[phase], ms)
		}
	}
	if got[PhaseOther] != 0 {
		t.Errorf("unclassified time %v ms, want 0", got[PhaseOther])
	}
}

// TestAnchorBelowSubmitRoot: in a record that holds the submitter's span,
// the posctl:submit span ends at submission time, and the campaign span
// — its child via the remote parent linkage — starts long after that End. The
// analysis must anchor on the campaign span, not clamp to the submit RPC's
// 100ms interval.
func TestAnchorBelowSubmitRoot(t *testing.T) {
	recs := []telemetry.SpanRecord{
		// posctl's lane: submitted at -20s, the RPC took 100ms.
		rec(1, "bbbbbbbbbbbbbbb1", "", "posctl", "posctl:submit", -20, -19.9),
	}
	for _, r := range campaignRecords() {
		if r.ParentSpanID == "" {
			r.ParentSpanID = "bbbbbbbbbbbbbbb1" // controller root joins posctl's tree
		}
		recs = append(recs, r)
	}
	sum := Summarize(recs)
	if sum.Root != "campaign:x" {
		t.Fatalf("anchor = %q, want the campaign span below the submit root", sum.Root)
	}
	if sum.WallMS != 100_000 {
		t.Fatalf("wall = %v ms, want the campaign's 100000, not the submit RPC's", sum.WallMS)
	}
	var phaseTotal float64
	for _, p := range sum.Phases {
		phaseTotal += p.MS
	}
	if math.Abs(phaseTotal-sum.WallMS) > 1e-6 {
		t.Errorf("phases sum %v != wall %v", phaseTotal, sum.WallMS)
	}
}

// TestSubtreeEndExtendsTruncatedAnchor: a cut-short archive can stamp the
// anchor's End before a still-open child's — the child's tail must not be
// discarded.
func TestSubtreeEndExtendsTruncatedAnchor(t *testing.T) {
	recs := []telemetry.SpanRecord{
		rec(1, "aaaaaaaaaaaaaaa1", "", "controller", "campaign:x", 0, 50),
		rec(2, "aaaaaaaaaaaaaaa2", "aaaaaaaaaaaaaaa1", "controller", "run 1", 10, 80),
	}
	sum := Summarize(recs)
	if sum.WallMS != 80_000 {
		t.Fatalf("wall = %v ms, want 80000 (extended to the subtree's max End)", sum.WallMS)
	}
	if got := phaseMS(sum)[PhaseMeasurement]; got != 70_000 {
		t.Errorf("measurement = %v ms, want 70000", got)
	}
}

// TestAdmissionScanSkipsBadEvents: a queue event with an unparsable or late
// "submitted" stamp must not end the scan — a later valid admission record
// still attributes the queue wait.
func TestAdmissionScanSkipsBadEvents(t *testing.T) {
	tl := &Timeline{Summary: *Summarize(campaignRecords())}
	events := []eventlog.Event{
		{Typ: eventlog.TypeQueue, Attrs: map[string]string{"submitted": "not-a-time"}},
		{Typ: eventlog.TypeQueue, Attrs: map[string]string{
			"submitted": epoch.Add(time.Second).Format(time.RFC3339Nano), // after start: ignored
		}},
		{Typ: eventlog.TypeQueue, Attrs: map[string]string{
			"submitted":  epoch.Add(-5 * time.Second).Format(time.RFC3339Nano),
			"queue_user": "bob",
		}},
	}
	applyAdmission(tl, events)
	if tl.QueueWaitMS != 5_000 || tl.QueueUser != "bob" {
		t.Errorf("queue wait = %v ms user %q, want 5000/bob from the later valid event",
			tl.QueueWaitMS, tl.QueueUser)
	}
}

// TestLegacyIntLinkage: archives predating trace identities still assemble
// via the per-process int parent linkage.
func TestLegacyIntLinkage(t *testing.T) {
	recs := []telemetry.SpanRecord{
		{ID: 1, Name: "experiment:x", Start: epoch, End: epoch.Add(10 * time.Second)},
		{ID: 2, Parent: 1, Name: "run 1", Start: epoch, End: epoch.Add(8 * time.Second)},
	}
	sum := Summarize(recs)
	if sum.Root != "experiment:x" || sum.WallMS != 10_000 {
		t.Fatalf("legacy root = %q wall = %v", sum.Root, sum.WallMS)
	}
	if got := phaseMS(sum)[PhaseMeasurement]; got != 8_000 {
		t.Errorf("legacy measurement = %v ms, want 8000", got)
	}
}

func TestAssembleMergesArchives(t *testing.T) {
	dir := t.TempDir()
	writeSpanArchive(t, filepath.Join(dir, "spans.json"), campaignRecords())

	// Journaled queue admission: submitted 20s before the campaign started.
	j, err := eventlog.OpenJournal(filepath.Join(dir, "events"), 0)
	if err != nil {
		t.Fatal(err)
	}
	ev := eventlog.Event{
		Seq: 1, Typ: eventlog.TypeQueue, At: epoch, Run: eventlog.NoRun,
		Message: "queue admission",
		Attrs: map[string]string{
			"submitted":  epoch.Add(-20 * time.Second).Format(time.RFC3339Nano),
			"admitted":   epoch.Format(time.RFC3339Nano),
			"queue_user": "alice",
		},
	}
	if err := j.Append(ev); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Archived run directories.
	for run, durSec := range map[int]int{1: 25, 2: 20} {
		rd := filepath.Join(dir, fmt.Sprintf("run_%04d", run))
		if err := os.MkdirAll(rd, 0o755); err != nil {
			t.Fatal(err)
		}
		meta := map[string]any{
			"run": run, "started_at": epoch, "finished_at": epoch.Add(time.Duration(durSec) * time.Second),
		}
		data, _ := json.Marshal(meta)
		if err := os.WriteFile(filepath.Join(rd, "metadata.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	tl, err := Assemble(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Spans != 9 {
		t.Errorf("spans = %d, want 9", tl.Spans)
	}
	if len(tl.Procs) != 1 || tl.Procs[0] != "controller" {
		t.Errorf("procs = %v, want [controller]", tl.Procs)
	}

	// Admission folded in: timeline extends leftward, still partitions exactly.
	if tl.QueueWaitMS != 20_000 || tl.QueueUser != "alice" {
		t.Errorf("queue wait = %v ms user %q, want 20000/alice", tl.QueueWaitMS, tl.QueueUser)
	}
	if tl.WallMS != 120_000 {
		t.Errorf("wall with queue wait = %v ms, want 120000", tl.WallMS)
	}
	var phaseTotal float64
	for _, p := range tl.Phases {
		phaseTotal += p.MS
	}
	if math.Abs(phaseTotal-tl.WallMS) > 1e-6 {
		t.Errorf("phases sum %v != wall %v after admission fold", phaseTotal, tl.WallMS)
	}
	if tl.CriticalPath[0].Phase != PhaseQueueWait || tl.CriticalPath[0].StartMS != 0 {
		t.Errorf("first segment = %+v, want queue-wait at offset 0", tl.CriticalPath[0])
	}

	if len(tl.Runs) != 2 || tl.Runs[0].Run != 1 || tl.Runs[0].DurMS != 25_000 {
		t.Errorf("runs = %+v", tl.Runs)
	}
	if len(tl.Replicas) != 1 || tl.Replicas[0].Name != "a" {
		t.Fatalf("replicas = %+v", tl.Replicas)
	}
	// Lane a: 80s long, busy = setup+runs = 10+25+20+18 = 73s → idle 7/80.
	if got := tl.Replicas[0].IdleFraction; math.Abs(got-7.0/80.0) > 1e-9 {
		t.Errorf("replica idle fraction = %v, want %v", got, 7.0/80.0)
	}

}

func writeSpanArchive(t *testing.T, path string, recs []telemetry.SpanRecord) {
	t.Helper()
	var buf []byte
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestFindStragglers(t *testing.T) {
	runs := []RunStat{
		{Run: 1, DurMS: 1000}, {Run: 2, DurMS: 1100}, {Run: 3, DurMS: 1050},
		{Run: 4, DurMS: 4000}, // 4x the median
	}
	replicas := []ReplicaStat{
		{Name: "a", BusyMS: 2000}, {Name: "b", BusyMS: 9000},
	}
	out := findStragglers(runs, replicas)
	if len(out) != 2 {
		t.Fatalf("stragglers = %+v, want run 4 and replica b", out)
	}
	if out[0].Kind != "run" || out[0].Name != "run 4" || out[0].Ratio < 3 {
		t.Errorf("run straggler = %+v", out[0])
	}
	if out[1].Kind != "replica" || out[1].Name != "b" {
		t.Errorf("replica straggler = %+v", out[1])
	}
	// A tight distribution flags nothing.
	if got := findStragglers(runs[:3], replicas[:1]); len(got) != 0 {
		t.Errorf("tight distribution flagged %+v", got)
	}
}

func TestCompareDrift(t *testing.T) {
	base := Summarize(campaignRecords())
	baseTL := &Timeline{Summary: *base}

	// Identical timelines: quiet by construction.
	d := Compare(baseTL, baseTL, 0)
	if d.Flagged {
		t.Fatalf("identical timelines flagged: %+v", d)
	}
	if d.Threshold != DefaultDriftThreshold {
		t.Errorf("threshold default = %v, want %v", d.Threshold, DefaultDriftThreshold)
	}

	// Inject a slowdown: setup stretches 10s → 30s (everything after shifts).
	slow := campaignRecords()
	for i := range slow {
		shift := func(ts time.Time) time.Time {
			if ts.After(epoch.Add(19 * time.Second)) {
				return ts.Add(20 * time.Second)
			}
			return ts
		}
		slow[i].Start, slow[i].End = shift(slow[i].Start), shift(slow[i].End)
	}
	curTL := &Timeline{Summary: *Summarize(slow)}
	d = Compare(baseTL, curTL, 0)
	if !d.Flagged {
		t.Fatalf("3x setup slowdown not flagged: %+v", d)
	}
	var setup *PhaseDrift
	for i := range d.Phases {
		if d.Phases[i].Phase == PhaseSetup {
			setup = &d.Phases[i]
		}
	}
	if setup == nil || !setup.Flagged || math.Abs(setup.Ratio-3) > 1e-6 {
		t.Errorf("setup drift = %+v, want flagged at ratio 3", setup)
	}
	// Unchanged phases stay quiet.
	for _, p := range d.Phases {
		if p.Phase != PhaseSetup && p.Flagged {
			t.Errorf("phase %s flagged without drift: %+v", p.Phase, p)
		}
	}
}

// TestCompareNewPhase: retries the baseline never had are drift even though
// the ratio is undefined.
func TestCompareNewPhase(t *testing.T) {
	base := &Timeline{Summary: Summary{WallMS: 1000, Phases: []PhaseTotal{{Phase: PhaseMeasurement, MS: 1000}}}}
	cur := &Timeline{Summary: Summary{WallMS: 1500, Phases: []PhaseTotal{
		{Phase: PhaseMeasurement, MS: 1000}, {Phase: PhaseRetry, MS: 500},
	}}}
	d := Compare(base, cur, 0.25)
	if !d.Flagged {
		t.Fatalf("new retry phase not flagged: %+v", d)
	}
}

func TestReadSpansMissing(t *testing.T) {
	if _, err := ReadSpans(t.TempDir()); err == nil {
		t.Fatal("empty dir: want an explanatory error, got nil")
	}
}
