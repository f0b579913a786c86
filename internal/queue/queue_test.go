package queue

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pos/internal/calendar"
	"pos/internal/eventlog"
)

// open builds a controller over nodes with a fast sweep, failing the test on
// error. launch may be nil for a trivial instant-success launcher.
func open(t *testing.T, dir string, cal *calendar.Calendar, launch Launch, events *eventlog.Pipeline) *Controller {
	t.Helper()
	if launch == nil {
		launch = func(ctx context.Context, sub Submission, ev *eventlog.Pipeline) error { return nil }
	}
	c, err := Open(Config{
		Dir:           dir,
		Calendar:      cal,
		Launch:        launch,
		Events:        events,
		SweepInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return c
}

// waitState polls until submission id reaches want (or the deadline).
func waitState(t *testing.T, c *Controller, id int, want State) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Get(id)
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		if st.State == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := c.Get(id)
	t.Fatalf("submission %d stuck in %s, want %s", id, st.State, want)
	return Status{}
}

func TestSubmitValidation(t *testing.T) {
	cal := calendar.New([]string{"n1"})
	c := open(t, t.TempDir(), cal, nil, nil)
	defer c.Close()
	cases := []Submission{
		{Nodes: []string{"n1"}, Minutes: 5},    // no user
		{User: "alice", Minutes: 5},            // no nodes
		{User: "alice", Nodes: []string{"n1"}}, // no minutes
	}
	for i, sub := range cases {
		if _, err := c.Submit(sub); err == nil {
			t.Errorf("case %d: Submit accepted invalid submission", i)
		}
	}
}

func TestSubmitRunsAndReleasesAllocation(t *testing.T) {
	cal := calendar.New([]string{"n1", "n2"})
	var gotSub Submission
	launch := func(ctx context.Context, sub Submission, ev *eventlog.Pipeline) error {
		gotSub = sub
		return nil
	}
	c := open(t, t.TempDir(), cal, launch, nil)
	defer c.Close()
	st, err := c.Submit(Submission{User: "alice", Name: "sweep", Nodes: []string{"n1", "n2"}, Minutes: 5})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.ID != 1 || st.State != StateQueued || st.Position != 1 {
		t.Fatalf("fresh submission = %+v", st)
	}
	final := waitState(t, c, st.ID, StateDone)
	if final.Admitted.IsZero() || final.Finished.IsZero() {
		t.Errorf("done submission missing timestamps: %+v", final)
	}
	if gotSub.ID != st.ID || gotSub.User != "alice" {
		t.Errorf("launcher saw %+v", gotSub)
	}
	if n := cal.Size(); n != 0 {
		t.Errorf("allocation leaked: calendar holds %d after completion", n)
	}
}

func TestLaunchFailureMarksFailed(t *testing.T) {
	cal := calendar.New([]string{"n1"})
	launch := func(ctx context.Context, sub Submission, ev *eventlog.Pipeline) error {
		return errors.New("boom")
	}
	c := open(t, t.TempDir(), cal, launch, nil)
	defer c.Close()
	st, err := c.Submit(Submission{User: "alice", Nodes: []string{"n1"}, Minutes: 5})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitState(t, c, st.ID, StateFailed)
	if final.Error != "boom" {
		t.Errorf("failed submission error = %q", final.Error)
	}
	if n := cal.Size(); n != 0 {
		t.Errorf("allocation leaked after failure: %d", n)
	}
}

func TestUnknownNodeRejectedTerminally(t *testing.T) {
	cal := calendar.New([]string{"n1"})
	c := open(t, t.TempDir(), cal, nil, nil)
	defer c.Close()
	st, err := c.Submit(Submission{User: "alice", Nodes: []string{"ghost"}, Minutes: 5})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitState(t, c, st.ID, StateFailed)
	if !strings.Contains(final.Error, "unknown node") {
		t.Errorf("rejection error = %q", final.Error)
	}
}

func TestCancelQueued(t *testing.T) {
	cal := calendar.New([]string{"n1"})
	block := make(chan struct{})
	launch := func(ctx context.Context, sub Submission, ev *eventlog.Pipeline) error {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil
	}
	c := open(t, t.TempDir(), cal, launch, nil)
	defer c.Close()
	defer close(block)
	first, _ := c.Submit(Submission{User: "alice", Nodes: []string{"n1"}, Minutes: 5})
	waitState(t, c, first.ID, StateRunning)
	second, _ := c.Submit(Submission{User: "bob", Nodes: []string{"n1"}, Minutes: 5})

	if _, err := c.Cancel("mallory", second.ID); !errors.Is(err, ErrWrongUser) {
		t.Errorf("cross-user cancel error = %v, want ErrWrongUser", err)
	}
	if _, err := c.Cancel("bob", 999); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing-id cancel error = %v, want ErrNotFound", err)
	}
	st, err := c.Cancel("bob", second.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if st.State != StateCancelled {
		t.Errorf("cancelled queued submission state = %s", st.State)
	}
	if _, err := c.Cancel("bob", second.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("double cancel error = %v, want ErrFinished", err)
	}
}

func TestCancelPreemptsRunning(t *testing.T) {
	cal := calendar.New([]string{"n1"})
	started := make(chan struct{})
	launch := func(ctx context.Context, sub Submission, ev *eventlog.Pipeline) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	}
	c := open(t, t.TempDir(), cal, launch, nil)
	defer c.Close()
	st, _ := c.Submit(Submission{User: "alice", Nodes: []string{"n1"}, Minutes: 5})
	<-started
	if _, err := c.Cancel("alice", st.ID); err != nil {
		t.Fatalf("Cancel running: %v", err)
	}
	final := waitState(t, c, st.ID, StateCancelled)
	if final.Finished.IsZero() {
		t.Errorf("cancelled submission missing finish time: %+v", final)
	}
	if n := cal.Size(); n != 0 {
		t.Errorf("allocation leaked after preemption: %d", n)
	}
}

func TestQueueEventsPublished(t *testing.T) {
	cal := calendar.New([]string{"n1"})
	events := eventlog.NewPipeline()
	sub := events.Subscribe(64)
	defer sub.Close()
	launch := func(ctx context.Context, s Submission, ev *eventlog.Pipeline) error {
		// The private pipeline must reach the shared stream, campaign-tagged.
		ev.Publish(eventlog.Event{Typ: eventlog.TypeLog, Run: eventlog.NoRun, Message: "from launcher"})
		return nil
	}
	c := open(t, t.TempDir(), cal, launch, events)
	defer c.Close()
	st, _ := c.Submit(Submission{User: "alice", Nodes: []string{"n1"}, Minutes: 5})
	waitState(t, c, st.ID, StateDone)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var states []string
	sawForwarded := false
	for len(states) < 3 || !sawForwarded {
		ev, ok := sub.Next(ctx)
		if !ok {
			t.Fatalf("event stream ended early: states=%v forwarded=%v", states, sawForwarded)
		}
		if ev.Typ == eventlog.TypeQueue {
			states = append(states, ev.Attrs["state"])
		}
		if ev.Message == "from launcher" {
			if ev.Attrs["campaign"] != "1" {
				t.Errorf("forwarded event missing campaign tag: %+v", ev.Attrs)
			}
			sawForwarded = true
		}
	}
	want := []string{"queued", "running", "done"}
	for i, w := range want {
		if states[i] != w {
			t.Fatalf("queue event states = %v, want %v", states, want)
		}
	}
}

// TestFairShareOrdering holds one node, floods it from two users, and checks
// that admissions alternate instead of draining alice's backlog first.
func TestFairShareOrdering(t *testing.T) {
	cal := calendar.New([]string{"n1"})
	gate := make(chan struct{})
	var mu sync.Mutex
	var admitted []string
	launch := func(ctx context.Context, sub Submission, ev *eventlog.Pipeline) error {
		mu.Lock()
		admitted = append(admitted, fmt.Sprintf("%s#%d", sub.User, sub.ID))
		mu.Unlock()
		<-gate // hold the node until every submission is in
		return nil
	}
	c := open(t, t.TempDir(), cal, launch, nil)
	defer c.Close()

	var ids []int
	for i := 0; i < 3; i++ {
		st, err := c.Submit(Submission{User: "alice", Nodes: []string{"n1"}, Minutes: 5})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, st.ID)
	}
	for i := 0; i < 3; i++ {
		st, err := c.Submit(Submission{User: "bob", Nodes: []string{"n1"}, Minutes: 5})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, st.ID)
	}
	close(gate)
	for _, id := range ids {
		waitState(t, c, id, StateDone)
	}
	mu.Lock()
	defer mu.Unlock()
	// alice submitted 1,2,3 and bob 4,5,6; fair share must interleave the
	// two tenants rather than run alice's FIFO to exhaustion.
	want := []string{"alice#1", "bob#4", "alice#2", "bob#5", "alice#3", "bob#6"}
	for i := range want {
		if admitted[i] != want[i] {
			t.Fatalf("admission order = %v, want %v", admitted, want)
		}
	}
}

// TestPriorityBeatsFairShare: a higher-priority submission jumps every tier
// below it, regardless of who was admitted last.
func TestPriorityBeatsFairShare(t *testing.T) {
	cal := calendar.New([]string{"n1"})
	gate := make(chan struct{})
	var mu sync.Mutex
	var admitted []int
	launch := func(ctx context.Context, sub Submission, ev *eventlog.Pipeline) error {
		mu.Lock()
		admitted = append(admitted, sub.ID)
		mu.Unlock()
		<-gate
		return nil
	}
	c := open(t, t.TempDir(), cal, launch, nil)
	defer c.Close()

	first, _ := c.Submit(Submission{User: "alice", Nodes: []string{"n1"}, Minutes: 5})
	waitState(t, c, first.ID, StateRunning) // first now holds the node
	low, _ := c.Submit(Submission{User: "alice", Nodes: []string{"n1"}, Minutes: 5})
	high, _ := c.Submit(Submission{User: "bob", Nodes: []string{"n1"}, Minutes: 5, Priority: 10})
	close(gate)
	for _, id := range []int{first.ID, low.ID, high.ID} {
		waitState(t, c, id, StateDone)
	}
	mu.Lock()
	defer mu.Unlock()
	// Priority 10 must beat the earlier-submitted priority 0 once the node
	// frees up.
	want := []int{first.ID, high.ID, low.ID}
	for i := range want {
		if admitted[i] != want[i] {
			t.Fatalf("admission order = %v, want %v", admitted, want)
		}
	}
}

// TestConcurrentSubmissionHammer races N users x M submissions over a small
// calendar under -race and asserts the admission invariant: no two running
// campaigns ever hold the same node.
func TestConcurrentSubmissionHammer(t *testing.T) {
	const users, perUser = 4, 8
	nodes := []string{"n1", "n2", "n3"}
	cal := calendar.New(nodes)

	var mu sync.Mutex
	busy := make(map[string]int)
	overlaps := 0
	launch := func(ctx context.Context, sub Submission, ev *eventlog.Pipeline) error {
		mu.Lock()
		for _, n := range sub.Nodes {
			busy[n]++
			if busy[n] > 1 {
				overlaps++
			}
		}
		mu.Unlock()
		time.Sleep(time.Duration(sub.ID%3) * time.Millisecond)
		mu.Lock()
		for _, n := range sub.Nodes {
			busy[n]--
		}
		mu.Unlock()
		return nil
	}
	c := open(t, t.TempDir(), cal, launch, nil)
	defer c.Close()

	var wg sync.WaitGroup
	ids := make(chan int, users*perUser)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			user := fmt.Sprintf("user%d", u)
			for i := 0; i < perUser; i++ {
				// Each submission wants 1 or 2 nodes, deterministically.
				want := []string{nodes[(u+i)%len(nodes)]}
				if i%2 == 0 {
					want = append(want, nodes[(u+i+1)%len(nodes)])
				}
				st, err := c.Submit(Submission{User: user, Nodes: want, Minutes: 5})
				if err != nil {
					t.Errorf("Submit(%s): %v", user, err)
					return
				}
				ids <- st.ID
			}
		}(u)
	}
	wg.Wait()
	close(ids)
	for id := range ids {
		waitState(t, c, id, StateDone)
	}
	mu.Lock()
	defer mu.Unlock()
	if overlaps != 0 {
		t.Fatalf("%d node overlaps among admitted campaigns", overlaps)
	}
}

// TestRestartRecovery: a controller dies with work queued and running; the
// next Open over the same journal loses nothing — running work is re-queued,
// terminal work stays terminal, and IDs keep counting from where they were.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	cal := calendar.New([]string{"n1"})
	started := make(chan struct{}, 8)
	blockers := func(ctx context.Context, sub Submission, ev *eventlog.Pipeline) error {
		started <- struct{}{}
		<-ctx.Done()
		return ctx.Err()
	}
	c1 := open(t, dir, cal, blockers, nil)
	var ids []int
	for i := 0; i < 5; i++ {
		user := "alice"
		if i%2 == 1 {
			user = "bob"
		}
		st, err := c1.Submit(Submission{User: user, Nodes: []string{"n1"}, Minutes: 5})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, st.ID)
	}
	<-started // one campaign holds the node, four are queued
	cancelled, err := c1.Cancel("bob", ids[1])
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The allocation the dead controller held is gone with it.
	cal2 := calendar.New([]string{"n1"})
	c2 := open(t, dir, cal2, nil, nil)
	defer c2.Close()
	for _, id := range ids {
		if id == cancelled.ID {
			st, err := c2.Get(id)
			if err != nil || st.State != StateCancelled {
				t.Fatalf("cancelled submission after restart: %+v, %v", st, err)
			}
			continue
		}
		waitState(t, c2, id, StateDone)
	}
	st, err := c2.Submit(Submission{User: "carol", Nodes: []string{"n1"}, Minutes: 5})
	if err != nil {
		t.Fatalf("Submit after restart: %v", err)
	}
	if want := ids[len(ids)-1] + 1; st.ID != want {
		t.Errorf("post-restart ID = %d, want %d (IDs must keep counting)", st.ID, want)
	}
}

func TestJournalTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	cal := calendar.New([]string{"n1"})
	c1 := open(t, dir, cal, nil, nil)
	st, _ := c1.Submit(Submission{User: "alice", Nodes: []string{"n1"}, Minutes: 5})
	waitState(t, c1, st.ID, StateDone)
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Crash mid-append: a torn half-record at the tail.
	path := filepath.Join(dir, "events-00000.jsonl")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"at":"2026-01-01T00:00:00Z","op":"sub`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2 := open(t, dir, calendar.New([]string{"n1"}), nil, nil)
	defer c2.Close()
	got, err := c2.Get(st.ID)
	if err != nil || got.State != StateDone {
		t.Fatalf("after torn-tail recovery: %+v, %v", got, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		t.Error("torn tail not truncated")
	}
}

// TestLegacyMapSpecJournalReplays opens a journal whose submissions carry the
// key=value spec map older controllers wrote: the history replays, a
// finished campaign stays finished, and a still-owed one fails with an error
// instead of blocking the restart or launching without its spec.
func TestLegacyMapSpecJournalReplays(t *testing.T) {
	dir := t.TempDir()
	sub := func(id int, spec string) string {
		return fmt.Sprintf(`{"at":"2026-01-01T00:00:00Z","op":"submit","sub":{"id":%d,"user":"alice","name":"c%d",%s"nodes":["n1"],"minutes":5,"submitted":"2026-01-01T00:00:00Z"}}`, id, id, spec)
	}
	op := func(op string, id int) string {
		return fmt.Sprintf(`{"at":"2026-01-01T00:00:01Z","op":%q,"id":%d}`, op, id)
	}
	legacy := `"spec":{"replicas":"2","sizes":"64/1500"},`
	lines := []string{
		sub(1, legacy), op(opAdmit, 1), op(opDone, 1), // finished
		sub(2, legacy), op(opAdmit, 2), // running when the controller died
		sub(3, legacy), // queued
		sub(4, `"spec":"replicas: 2\n",`),
	}
	if err := os.WriteFile(journalPath(dir), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var launched []Submission
	launch := func(ctx context.Context, sub Submission, ev *eventlog.Pipeline) error {
		mu.Lock()
		launched = append(launched, sub)
		mu.Unlock()
		return nil
	}
	c := open(t, dir, calendar.New([]string{"n1"}), launch, nil)
	if st, err := c.Get(1); err != nil || st.State != StateDone {
		t.Errorf("finished legacy campaign after replay: %+v, %v", st, err)
	}
	for _, id := range []int{2, 3} {
		st, err := c.Get(id)
		if err != nil || st.State != StateFailed || !strings.Contains(st.Error, "spec") {
			t.Errorf("owed legacy campaign %d: %+v, %v", id, st, err)
		}
	}
	waitState(t, c, 4, StateDone)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(launched) != 1 || launched[0].ID != 4 || launched[0].Spec != "replicas: 2\n" {
		t.Errorf("launched %+v, want only #4 with its spec text", launched)
	}
	mu.Unlock()

	// The failures were journaled: the next controller agrees.
	c2 := open(t, dir, calendar.New([]string{"n1"}), launch, nil)
	defer c2.Close()
	for id, want := range map[int]State{1: StateDone, 2: StateFailed, 3: StateFailed, 4: StateDone} {
		if st, err := c2.Get(id); err != nil || st.State != want {
			t.Errorf("campaign %d after second restart: %+v, %v; want %s", id, st, err, want)
		}
	}
}

func TestJournalSurvivesInDir(t *testing.T) {
	dir := t.TempDir()
	cal := calendar.New([]string{"n1"})
	c := open(t, dir, cal, nil, nil)
	st, _ := c.Submit(Submission{User: "alice", Nodes: []string{"n1"}, Minutes: 5})
	waitState(t, c, st.ID, StateDone)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "events-00000.jsonl")); err != nil {
		t.Fatalf("journal file: %v", err)
	}
}

func TestSubmitAfterCloseRefused(t *testing.T) {
	cal := calendar.New([]string{"n1"})
	c := open(t, t.TempDir(), cal, nil, nil)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := c.Submit(Submission{User: "alice", Nodes: []string{"n1"}, Minutes: 5}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
}

// stopLoop retires the controller's admission goroutine so a test drives
// passes by hand; Close still works afterwards.
func stopLoop(c *Controller) {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.loopDone
}

// admissionTrace plays one fixed scenario — six submissions from two tenants
// wait on a held node, survive a restart, then drain one admission at a time —
// on a controller that has history finished campaigns behind it, and writes
// down everything a tenant or the health layer can see of the ordering:
// positions, starved passes, who runs next.
func admissionTrace(t *testing.T, history int) []string {
	t.Helper()
	dir := t.TempDir()
	writeHistory(t, dir, history)
	cal := calendar.New([]string{"n1"})
	held := holdNode(t, cal)
	var mu sync.Mutex
	var trace []string
	note := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		trace = append(trace, fmt.Sprintf(format, args...))
	}
	launch := func(ctx context.Context, sub Submission, ev *eventlog.Pipeline) error {
		note("launch %s", sub.Name)
		return nil
	}
	starved := starvedPasses.Value()
	noteStarved := func() {
		note("starved +%v", starvedPasses.Value()-starved)
		starved = starvedPasses.Value()
	}

	c := open(t, dir, cal, launch, nil)
	stopLoop(c)
	ids := make(map[string]int)
	for _, s := range []struct {
		user, name string
		priority   int
	}{{"alice", "a0", 0}, {"alice", "a1", 0}, {"bob", "b0", 0}, {"alice", "a2", 0}, {"bob", "b1", 5}, {"bob", "b2", 0}} {
		st, err := c.Submit(Submission{User: s.user, Name: s.name, Nodes: []string{"n1"}, Minutes: 5, Priority: s.priority})
		if err != nil {
			t.Fatal(err)
		}
		if st.ID != history+len(ids)+1 {
			t.Fatalf("%s got id %d behind %d finished campaigns", s.name, st.ID, history)
		}
		ids[s.name] = st.ID
		note("submit %s position %d", s.name, st.Position)
	}
	names := []string{"a0", "a1", "a2", "b0", "b1", "b2"}
	notePositions := func() {
		for _, name := range names {
			st, err := c.Get(ids[name])
			if err != nil {
				t.Fatal(err)
			}
			note("%s %s position %d", name, st.State, st.Position)
		}
	}
	for i := 0; i < 3; i++ {
		c.pass() // the node is held: every head conflicts, nothing runs
	}
	noteStarved()
	notePositions()

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c = open(t, dir, cal, launch, nil)
	defer c.Close()
	stopLoop(c)
	note("reopened")
	notePositions()
	if got := len(c.List()); got != history+len(names) {
		t.Fatalf("List has %d entries, want %d", got, history+len(names))
	}

	if err := cal.Release("holder", held.ID); err != nil {
		t.Fatal(err)
	}
	for range names {
		c.pass() // one node: admits exactly the next in line
		for _, name := range names {
			if st, _ := c.Get(ids[name]); st.State == StateRunning {
				waitState(t, c, ids[name], StateDone)
			}
		}
		notePositions()
	}
	noteStarved()
	mu.Lock()
	defer mu.Unlock()
	return trace
}

// Fair-share order, Position and the starvation signal are functions of the
// live queue alone: ten thousand finished campaigns ahead of it change none
// of them, before or after a restart.
func TestAdmissionOrderIgnoresHistory(t *testing.T) {
	bare := admissionTrace(t, 0)
	long := admissionTrace(t, 10_000)
	if strings.Join(bare, "\n") != strings.Join(long, "\n") {
		t.Fatalf("behind 10 000 finished campaigns:\n%s\n\nwith no history:\n%s",
			strings.Join(long, "\n"), strings.Join(bare, "\n"))
	}
	// The scenario itself: b1's priority first, then the tenants alternate.
	var launched []string
	for _, line := range bare {
		if name, ok := strings.CutPrefix(line, "launch "); ok {
			launched = append(launched, name)
		}
	}
	if got, want := strings.Join(launched, " "), "b1 a0 b0 a1 b2 a2"; got != want {
		t.Errorf("admission order %q, want %q", got, want)
	}
	if bare[6] != "starved +3" {
		t.Errorf("three passes against a held node noted %q", bare[6])
	}
}
