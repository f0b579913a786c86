package queue

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"pos/internal/calendar"
	"pos/internal/eventlog"
)

// The legacy journal's op names, as the tests that write a queue.jsonl spell
// them.
const (
	opAdmit = "admit"
	opDone  = "done"
)

// segment is the journal's first segment file, the only one a short history
// fills.
const segment = "events-00000.jsonl"

// heldNodes is a calendar over nodes with every node held by someone else,
// so a controller over it recovers its queue and admits nothing.
func heldNodes(t *testing.T, nodes []string) *calendar.Calendar {
	t.Helper()
	cal := calendar.New(nodes)
	now := time.Now()
	if _, err := cal.Allocate("holder", nodes, now, now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	return cal
}

// sameSubmission compares every field, Submitted as an instant.
func sameSubmission(a, b Submission) bool {
	if !a.Submitted.Equal(b.Submitted) {
		return false
	}
	a.Submitted, b.Submitted = time.Time{}, time.Time{}
	return reflect.DeepEqual(a, b)
}

// noTornLine fails unless every line of dir's segment is a whole event.
func noTornLine(t *testing.T, dir string, k int) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, segment))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		t.Fatalf("cut at %d: torn line left on disk", k)
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		if _, err := eventlog.Decode(line); len(line) > 0 && err != nil {
			t.Fatalf("cut at %d: undecodable line %q: %v", k, line, err)
		}
	}
}

// TestCrashAtEveryByte drives one controller through every state, then cuts
// its journal at every byte, as a crash mid-append leaves it, and restarts
// on each cut. Whatever the cut, an acknowledged submission comes back whole
// under its ID, IDs keep counting above it, and every surviving transition
// holds, running coming back queued.
func TestCrashAtEveryByte(t *testing.T) {
	nodes := []string{"n1", "n2", "rack,1\nport 2"}
	dir := t.TempDir()
	launch := func(ctx context.Context, sub Submission, ev *eventlog.Pipeline) error {
		switch sub.Name {
		case "fails":
			return errors.New("boom")
		case "holds":
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
	c := open(t, dir, calendar.New(nodes), launch, nil)
	subs := make(map[int]Submission)
	submit := func(sub Submission, want State) int {
		st, err := c.Submit(sub)
		if err != nil {
			t.Fatal(err)
		}
		subs[st.ID] = st.Submission
		waitState(t, c, st.ID, want)
		return st.ID
	}
	submit(Submission{User: "alice", Name: "done", Nodes: []string{"n1"}, Minutes: 5,
		Spec: "flavor: vpos\nsizes: [64, 1500]\nname: \"a \\\"b\\\"\"\n", TraceParent: "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"}, StateDone)
	submit(Submission{User: "bob", Name: "fails", Nodes: []string{"n1"}, Minutes: 5, Priority: -2, ExpDir: "exp/a,b"}, StateFailed)
	submit(Submission{User: "alice", Name: "holds", Nodes: []string{"n2"}, Minutes: 5}, StateRunning)
	cancelled := submit(Submission{User: "bob", Name: "cancelled", Nodes: []string{"n2", "n1"}, Minutes: 5}, StateQueued)
	if _, err := c.Cancel("bob", cancelled); err != nil {
		t.Fatal(err)
	}
	submit(Submission{User: "bob", Name: "waits", Nodes: []string{"rack,1\nport 2", "n2"}, Minutes: 7, Priority: 3}, StateQueued)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, segment))
	if err != nil {
		t.Fatal(err)
	}
	type line struct {
		end    int
		id     int
		state  State
		submit bool
	}
	var lines []line
	seen := make(map[State]bool)
	for off := 0; off < len(data); {
		n := bytes.IndexByte(data[off:], '\n') + 1
		ev, err := eventlog.Decode(data[off : off+n-1])
		if err != nil {
			t.Fatal(err)
		}
		id, _ := strconv.Atoi(ev.Attrs["campaign"])
		_, submit := ev.Attrs["minutes"]
		off += n
		lines = append(lines, line{off, id, State(ev.Attrs["state"]), submit})
		seen[State(ev.Attrs["state"])] = true
	}
	if len(seen) != 5 {
		t.Fatalf("history holds states %v, want all five", seen)
	}

	cut := filepath.Join(t.TempDir(), "cut")
	for k := 0; k <= len(data); k++ {
		if err := os.MkdirAll(cut, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cut, segment), data[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		want := make(map[int]State)
		maxID := 0
		for _, l := range lines {
			if l.end > k {
				break
			}
			want[l.id] = l.state
			if l.submit {
				maxID = max(maxID, l.id)
			}
		}
		c := open(t, cut, heldNodes(t, nodes), nil, nil)
		list := c.List()
		if len(list) != len(want) {
			t.Fatalf("cut at %d: %d submissions after restart, want %d", k, len(list), len(want))
		}
		for _, st := range list {
			w := want[st.ID]
			if w == StateRunning {
				w = StateQueued
			}
			if st.State != w || !sameSubmission(st.Submission, subs[st.ID]) {
				t.Fatalf("cut at %d: #%d %s %+v, want %s %+v", k, st.ID, st.State, st.Submission, w, subs[st.ID])
			}
			if (st.State == StateFailed) != (st.Error == "boom") {
				t.Fatalf("cut at %d: #%d %s with error %q", k, st.ID, st.State, st.Error)
			}
		}
		c.mu.Lock()
		next := c.nextID
		c.mu.Unlock()
		if next != maxID+1 {
			t.Fatalf("cut at %d: next ID %d above surviving %d", k, next, maxID)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		noTornLine(t, cut, k)
		if err := os.RemoveAll(cut); err != nil {
			t.Fatal(err)
		}
	}
}

// TestImportCrashAtEveryLine cuts an import of an older controller's
// queue.jsonl short at every line of the segment it writes, and mid-line,
// with queue.jsonl still present as a crash leaves it: the next Open starts
// the import over and ends where a clean import ends.
func TestImportCrashAtEveryLine(t *testing.T) {
	sub := func(id int, user, fields string) string {
		return `{"at":"2026-01-01T00:00:00Z","op":"submit","sub":{"id":` + strconv.Itoa(id) + `,"user":"` + user +
			`","name":"c` + strconv.Itoa(id) + `",` + fields + `"minutes":5,"submitted":"2026-01-01T00:00:00Z"}}`
	}
	op := func(op string, id int, extra string) string {
		return `{"at":"2026-01-01T00:00:01Z","op":"` + op + `","id":` + strconv.Itoa(id) + extra + `}`
	}
	lines := []string{
		sub(1, "alice", `"spec":"flavor: vpos\n","nodes":["n1","rack,1\nport 2"],"priority":-1,`),
		op("admit", 1, ""), op("done", 1, ""),
		sub(2, "bob", `"nodes":["n1"],"traceparent":"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",`),
		op("admit", 2, ""), op("fail", 2, `,"error":"boom"`),
		sub(3, "alice", `"spec":{"replicas":"2"},"nodes":["n1"],`), // key=value spec, still owed
		sub(4, "bob", `"nodes":["n1"],"exp_dir":"exp",`), op("cancel", 4, ""),
		sub(5, "alice", `"nodes":["n1"],`), op("admit", 5, ""), op("requeue", 5, ""), op("admit", 5, ""), // running
		sub(6, "bob", `"spec":"sizes: [64]\n","nodes":["n1"],`), // queued
	}
	legacy := []byte(strings.Join(lines, "\n") + "\n")
	nodes := []string{"n1", "rack,1\nport 2"}
	at := time.Date(2026, 1, 2, 0, 0, 0, 0, time.UTC)
	reopen := func(dir string, partial []byte) []Status {
		t.Helper()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(journalPath(dir), legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		if partial != nil {
			if err := os.WriteFile(filepath.Join(dir, segment), partial, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c, err := Open(Config{Dir: dir, Calendar: heldNodes(t, nodes), SweepInterval: time.Hour,
			Clock:  func() time.Time { return at },
			Launch: func(context.Context, Submission, *eventlog.Pipeline) error { return nil }})
		if err != nil {
			t.Fatal(err)
		}
		list := c.List()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(journalPath(dir)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("queue.jsonl after import: %v", err)
		}
		if _, err := os.Stat(journalPath(dir) + ".imported"); err != nil {
			t.Fatal(err)
		}
		return list
	}

	want := reopen(filepath.Join(t.TempDir(), "clean"), nil)
	states := make([]State, len(want))
	for i, st := range want {
		states[i] = st.State
	}
	if got := []State{StateDone, StateFailed, StateFailed, StateCancelled, StateQueued, StateQueued}; !reflect.DeepEqual(states, got) {
		t.Fatalf("clean import states %v, want %v", states, got)
	}
	if want[0].Nodes[1] != "rack,1\nport 2" || want[0].Priority != -1 || want[2].Error != errLegacySpec.Error() {
		t.Fatalf("clean import lost fields: %+v", want)
	}

	full := filepath.Join(t.TempDir(), "full")
	if err := os.MkdirAll(full, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalPath(full), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := importLegacy(full, at); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(full, segment))
	if err != nil {
		t.Fatal(err)
	}
	var cuts []int
	for off := 0; off < len(seg); {
		n := bytes.IndexByte(seg[off:], '\n') + 1
		cuts = append(cuts, off, off+n/2)
		off += n
	}
	cuts = append(cuts, len(seg))
	base := t.TempDir()
	for _, k := range cuts {
		dir := filepath.Join(base, strconv.Itoa(k))
		if got := reopen(dir, seg[:k]); !reflect.DeepEqual(got, want) {
			t.Fatalf("import cut at %d of %d:\n%+v\nwant\n%+v", k, len(seg), got, want)
		}
	}
}

// FuzzSubmissionJournal round-trips a submission through its journal event:
// submitEvent, one line appended to a journal, Replay, submission. Every
// field comes back equal. nodes is split at NUL into the node list; a
// submission reaches the queue as JSON, so only valid UTF-8 is in scope.
func FuzzSubmissionJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, id int, user, name, expDir, spec, nodes string, minutes, priority int, traceParent string, unixNano int64) {
		sub := Submission{ID: id, User: user, Name: name, ExpDir: expDir, Spec: spec, Minutes: minutes,
			Priority: priority, TraceParent: traceParent, Submitted: time.Unix(0, unixNano).UTC()}
		if nodes != "" {
			sub.Nodes = strings.Split(nodes, "\x00")
		}
		for _, s := range append([]string{user, name, expDir, spec, traceParent}, sub.Nodes...) {
			if !utf8.ValidString(s) {
				return
			}
		}
		dir := t.TempDir()
		jl, err := eventlog.OpenJournal(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := appendNext(jl, submitEvent(sub)); err != nil {
			t.Fatal(err)
		}
		if err := jl.Close(); err != nil {
			t.Fatal(err)
		}
		evs, err := eventlog.Replay(dir)
		if err != nil || len(evs) != 1 {
			t.Fatalf("Replay: %d events, %v", len(evs), err)
		}
		if _, ok := evs[0].Attrs["minutes"]; !ok {
			t.Fatal("replayed submission reads as a requeue")
		}
		got, err := submission(evs[0])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, sub) {
			t.Fatalf("round trip:\n%+v\nwant\n%+v", got, sub)
		}
	})
}
