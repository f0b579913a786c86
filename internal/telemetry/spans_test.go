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
	if c := s.StartChild("x"); c != nil {
		t.Error("nil span spawned a child")
	}
	if SpanFromContext(ctx) != nil || TraceFromContext(ctx) != nil {
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
