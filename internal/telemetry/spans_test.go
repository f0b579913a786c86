package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// testClock is a deterministic, strictly increasing clock.
func testClock() func() time.Time {
	base := time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(time.Duration(n) * 10 * time.Millisecond)
	}
}

func TestSpanHierarchy(t *testing.T) {
	tr := NewTrace("campaign")
	tr.SetClock(testClock())
	ctx := ContextWithTrace(context.Background(), tr)

	rctx, run := StartSpan(ctx, "run", "combo", "size=64")
	_, exec := StartSpan(rctx, "exec:vriga", "phase", "measurement")
	exec.SetAttr("exit", "0")
	exec.End()
	run.End()
	tr.Finish()

	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d spans, want 3", len(recs))
	}
	root, run2, exec2 := recs[0], recs[1], recs[2]
	if root.Parent != 0 || run2.Parent != root.ID || exec2.Parent != run2.ID {
		t.Errorf("hierarchy wrong: %+v", recs)
	}
	if run2.Attrs["combo"] != "size=64" || exec2.Attrs["exit"] != "0" {
		t.Errorf("attrs lost: %+v", recs)
	}
	if !exec2.End.After(exec2.Start) || !root.End.After(root.Start) {
		t.Errorf("durations not positive: %+v", recs)
	}
	if exec2.Start.Before(run2.Start) || exec2.End.After(run2.End) {
		t.Errorf("child span not nested in parent: %+v", recs)
	}
}

func TestUntracedContextIsFree(t *testing.T) {
	ctx, s := StartSpan(context.Background(), "orphan")
	if s != nil {
		t.Fatal("StartSpan on untraced context returned a span")
	}
	// All methods must be nil-safe no-ops.
	s.End()
	s.SetAttr("k", "v")
	s.SetError(fmt.Errorf("boom"))
	if SpanFromContext(ctx) != nil {
		t.Error("untraced context reports a span")
	}
}

func TestSpansJSONRoundTripThroughChrome(t *testing.T) {
	tr := NewTrace("experiment")
	tr.SetClock(testClock())
	ctx := ContextWithTrace(context.Background(), tr)
	for i := 0; i < 3; i++ {
		rctx, run := StartSpan(ctx, fmt.Sprintf("run %d", i))
		_, ex := StartSpan(rctx, "exec:dut")
		ex.End()
		run.End()
	}
	tr.Finish()

	data, err := tr.RenderJSON()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ParseSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7 { // root + 3×(run + exec)
		t.Fatalf("parsed %d spans, want 7", len(recs))
	}

	chrome, err := ChromeTrace(recs)
	if err != nil {
		t.Fatal(err)
	}
	var events []ChromeEvent
	if err := json.Unmarshal(chrome, &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(events) != len(recs) {
		t.Fatalf("chrome events = %d, want %d", len(events), len(recs))
	}
	lanes := map[int]bool{}
	for _, ev := range events {
		if ev.Ph != "X" {
			t.Errorf("event %q ph = %q, want X", ev.Name, ev.Ph)
		}
		if ev.Dur < 0 || ev.Ts < 0 {
			t.Errorf("event %q has negative ts/dur: %+v", ev.Name, ev)
		}
		lanes[ev.Tid] = true
	}
	// Root on lane 0, each run (depth-1) on its own lane shared with its exec.
	if !lanes[0] || len(lanes) != 4 {
		t.Errorf("lanes = %v, want root lane 0 plus one per run", lanes)
	}
}

// TestParseSpansClampsBackwardSpan: a wall clock stepped back mid-span can
// archive a span that ends before it starts. The parser keeps the archive
// and clamps the span to zero length instead of refusing the experiment.
func TestParseSpansClampsBackwardSpan(t *testing.T) {
	data := []byte(`{"id":1,"name":"campaign:x","start":"2021-10-12T11:20:32Z","end":"2021-10-12T11:20:42Z"}
{"id":2,"parent":1,"name":"run 0","start":"2021-10-12T11:20:40Z","end":"2021-10-12T11:20:35Z"}
`)
	recs, err := ParseSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || !recs[1].End.Equal(recs[1].Start) {
		t.Fatalf("backward span parsed as %+v, want it clamped to its start", recs)
	}
	if !recs[0].End.Equal(time.Date(2021, 10, 12, 11, 20, 42, 0, time.UTC)) {
		t.Errorf("forward span end = %v, want it untouched", recs[0].End)
	}
}

// TestChromeTraceOneProcess: an archive written when traces named their
// process still renders every span under pid 1, with the lane label dropped
// rather than copied into the span's args.
func TestChromeTraceOneProcess(t *testing.T) {
	data := []byte(`{"id":1,"proc":"controller","name":"campaign:x","start":"2021-10-12T11:20:32Z","end":"2021-10-12T11:20:42Z"}
{"id":2,"parent":1,"proc":"runner","name":"run 0","start":"2021-10-12T11:20:33Z","end":"2021-10-12T11:20:35Z","attrs":{"combo":"pkt_sz=64"}}
`)
	recs, err := ParseSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	chrome, err := ChromeTrace(recs)
	if err != nil {
		t.Fatal(err)
	}
	var events []ChromeEvent
	if err := json.Unmarshal(chrome, &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("chrome events = %d, want 2", len(events))
	}
	for _, ev := range events {
		if ev.Pid != 1 {
			t.Errorf("event %q pid = %d, want 1", ev.Name, ev.Pid)
		}
		if _, ok := ev.Args["proc"]; ok {
			t.Errorf("event %q args carry a process lane: %v", ev.Name, ev.Args)
		}
	}
}

// TestRecordsEndOpenSpansAtStart: a span still open when the trace is read
// reports its start as its end; once ended, it reports the real end.
func TestRecordsEndOpenSpansAtStart(t *testing.T) {
	tr := NewTrace("campaign:x")
	tr.SetClock(testClock())
	child := startChild(tr.Root(), "run 1")
	for _, r := range tr.Records() {
		if !r.End.Equal(r.Start) {
			t.Errorf("open span %q ends at %v, want its start %v", r.Name, r.End, r.Start)
		}
	}
	child.End()
	tr.Finish()
	for _, r := range tr.Records() {
		if !r.End.After(r.Start) {
			t.Errorf("ended span %q ends at %v, want after its start %v", r.Name, r.End, r.Start)
		}
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	out, err := ChromeTrace(nil)
	if err != nil || string(out) != "[]" {
		t.Errorf("empty trace = %q, %v", out, err)
	}
}

// TestChromeTraceParentCycle: a corrupt archive whose int Parent fields form
// a cycle (neither span reaching Parent==0) must convert without recursing
// forever — each cycling span falls back to its own lane.
func TestChromeTraceParentCycle(t *testing.T) {
	now := time.Now()
	recs := []SpanRecord{
		{ID: 1, Parent: 0, Name: "root", Start: now, End: now.Add(time.Second)},
		{ID: 2, Parent: 3, Name: "a", Start: now, End: now.Add(time.Second)},
		{ID: 3, Parent: 2, Name: "b", Start: now, End: now.Add(time.Second)},
		{ID: 4, Parent: 4, Name: "self", Start: now, End: now.Add(time.Second)},
	}
	data, err := ChromeTrace(recs)
	if err != nil {
		t.Fatal(err)
	}
	var events []ChromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(recs) {
		t.Fatalf("got %d events, want %d", len(events), len(recs))
	}
}

// TestTraceConcurrent starts and ends spans from concurrent goroutines,
// mimicking parallel replicas dispatching runs; meaningful under -race.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace("campaign")
	ctx := ContextWithTrace(context.Background(), tr)
	const replicas, runs = 6, 40
	var wg sync.WaitGroup
	for rep := 0; rep < replicas; rep++ {
		wg.Add(1)
		go func(rep int) {
			defer wg.Done()
			wctx, lane := StartSpan(ctx, fmt.Sprintf("replica:%d", rep))
			for i := 0; i < runs; i++ {
				rctx, run := StartSpan(wctx, "run")
				run.SetAttr("n", fmt.Sprint(i))
				_, ex := StartSpan(rctx, "exec")
				ex.End()
				run.End()
			}
			lane.End()
		}(rep)
	}
	wg.Wait()
	tr.Finish()
	recs := tr.Records()
	want := 1 + replicas*(1+2*runs)
	if len(recs) != want {
		t.Fatalf("got %d spans, want %d", len(recs), want)
	}
	if _, err := ChromeTrace(recs); err != nil {
		t.Fatal(err)
	}
}

// Span budgets are 15 % above what was measured when they were set (go1.24,
// GOMAXPROCS 2, on top of 7e9ddda), rounded up. StartSpan and End of a span
// with one attribute, as a run's span is opened, cost 3 objects: the span,
// its attribute slice and the child context; with string ids and a map of
// attributes they cost 7. Rendering an Appendix-A campaign's 187 spans costs
// 1 object, the output; through json.Marshal of each record it cost 1 938.
const (
	startEndAllocBudget   = 4
	renderJSONAllocBudget = 2
)

func TestSpanAllocations(t *testing.T) {
	tr := NewTrace("campaign:appendix")
	tr.SetClock(testClock())
	ctx := ContextWithTrace(context.Background(), tr)
	// Grow the span slice past the runs measured, so its doubling is not
	// counted against a span.
	for i := 0; i < 512; i++ {
		startChild(tr.Root(), "warm").End()
	}
	startEnd := testing.AllocsPerRun(100, func() {
		_, run := StartSpan(ctx, "run", "combo", "pkt_sz=64")
		run.End()
	})
	t.Logf("StartSpan+End: %.0f allocations (budget %d)", startEnd, startEndAllocBudget)
	if startEnd > startEndAllocBudget {
		t.Errorf("StartSpan+End allocates %.0f objects, budget %d", startEnd, startEndAllocBudget)
	}

	// An Appendix-A campaign: root, 2 replicas, 60 runs with a setup and a
	// measurement exec each, and a few phase spans.
	camp := NewTrace("campaign:appendix")
	camp.SetClock(testClock())
	cctx := ContextWithTrace(context.Background(), camp)
	for r := 0; r < 2; r++ {
		rctx, replica := StartSpan(cctx, fmt.Sprintf("replica:%d", r), "replica", fmt.Sprint(r))
		for i := 0; i < 30; i++ {
			runCtx, run := StartSpan(rctx, fmt.Sprintf("run %d", i), "combo", "pkt_sz=64 pkt_rate=1000")
			for _, host := range []string{"vriga", "vtartu"} {
				_, ex := StartSpan(runCtx, "exec:"+host, "phase", "measurement")
				ex.SetAttr("exit", "0")
				ex.End()
			}
			run.End()
		}
		replica.End()
	}
	for len(camp.Records()) < 187 {
		startChild(camp.Root(), "phase", "phase", "setup").End()
	}
	camp.Finish()
	render := testing.AllocsPerRun(20, func() {
		if _, err := camp.RenderJSON(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RenderJSON of %d spans: %.0f allocations (budget %d)", len(camp.Records()), render, renderJSONAllocBudget)
	if render > renderJSONAllocBudget {
		t.Errorf("RenderJSON allocates %.0f objects, budget %d", render, renderJSONAllocBudget)
	}
}

// startChild opens a child span directly on parent, as StartSpan does on a
// context carrying it.
func startChild(parent *Span, name string, attrs ...string) *Span {
	return parent.tr.start(parent.id, name, attrs)
}
