package sim

import "testing"

// Regression for the stale-handle family of bugs: a stopped-then-fired (or
// fired-then-stopped) timer must never reach heap.Remove with a stale index,
// even after the underlying event struct has been recycled into a new
// incarnation.
func TestCancelTwiceAndAfterFire(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.At(10, func(Time) { fired = true })
	if !e.Cancel(id) {
		t.Fatal("first Cancel should report true")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel should be a no-op")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	id2 := e.At(20, func(Time) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Cancel(id2) {
		t.Fatal("Cancel after fire should be a no-op")
	}
	if e.Cancel(id2) {
		t.Fatal("repeated Cancel after fire should be a no-op")
	}
}

// A stale EventID must not be able to cancel the recycled event's next
// incarnation: the generation check has to fail even though the pointer is
// being reused for a live, pending event.
func TestStaleIDCannotCancelRecycledEvent(t *testing.T) {
	e := NewEngine()
	idA := e.At(10, func(Time) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The free list guarantees B reuses A's struct.
	fired := false
	idB := e.At(20, func(Time) { fired = true })
	if idA.ev != idB.ev {
		t.Fatal("expected event struct to be recycled (free list broken?)")
	}
	if e.Cancel(idA) {
		t.Fatal("stale ID cancelled a recycled event")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("live event was suppressed by a stale ID")
	}
}

// Cancelling an ID issued before Reset must be inert — the old code held a
// heap index into a discarded queue and panicked inside heap.Remove.
func TestStaleIDAfterResetIsInert(t *testing.T) {
	e := NewEngine()
	id := e.At(10, func(Time) {})
	e.Reset()
	if e.Cancel(id) {
		t.Fatal("Cancel of a pre-Reset ID should report false")
	}
	ok := false
	e.At(5, func(Time) { ok = true })
	if e.Cancel(id) {
		t.Fatal("stale pre-Reset ID affected a fresh event")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("fresh event did not fire")
	}
}

// Steady-state scheduling must come from the free list: after a warm-up
// run, At/fire cycles allocate nothing.
func TestEventPoolReusesStructs(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.At(Time(i), func(Time) {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	base := e.Now()
	allocs := testing.AllocsPerRun(100, func() {
		e.At(base.Add(1), func(Time) {})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		base = e.Now()
	})
	// One allocation per run is the closure itself; the event must be
	// pooled.
	if allocs > 1 {
		t.Fatalf("steady-state At+fire allocates %.1f objects, want <= 1 (closure only)", allocs)
	}
}

func TestAtArgPassesArgumentWithoutClosure(t *testing.T) {
	e := NewEngine()
	type payload struct{ n int }
	got := 0
	h := func(now Time, arg any) { got = arg.(*payload).n }
	p := &payload{n: 42}
	e.AtArg(5, h, p)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("arg handler saw %d, want 42", got)
	}
	// Pooled steady state: scheduling with a preallocated arg and handler
	// is allocation-free.
	base := e.Now()
	allocs := testing.AllocsPerRun(100, func() {
		e.AtArg(base.Add(1), h, p)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		base = e.Now()
	})
	if allocs != 0 {
		t.Fatalf("steady-state AtArg allocates %.1f objects, want 0", allocs)
	}
}

// The watermark lets cut-through components advance the clock to the time
// their synchronous activity logically reached.
func TestWitnessAdvancesClockOnQuiescence(t *testing.T) {
	e := NewEngine()
	e.At(10, func(now Time) {
		// Cut-through delivery that logically lands at t=75.
		e.Witness(75)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 75 {
		t.Fatalf("clock at %v after Run, want watermark 75", e.Now())
	}
	// RunUntil keeps its contract: the clock never passes the deadline.
	e.Reset()
	e.At(10, func(now Time) { e.Witness(200) })
	if err := e.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 50 {
		t.Fatalf("clock at %v after RunUntil(50), want 50", e.Now())
	}
}
