package eventlog

import (
	"cmp"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// FuzzJournalReplay treats data as the newest segment of a journal whose
// older segment holds two intact events, and stray as the name of one more
// file beside them holding a copy of that older segment. Whatever the bytes:
//
//   - Replay never panics and returns events in Seq order;
//   - a stray file that is not a canonical segment name (events-0.jsonl,
//     events-+7.jsonl, ...) changes nothing: Replay and OpenJournal behave
//     exactly as without it;
//   - when Replay succeeds, OpenJournal plus one Append replays the same
//     surviving prefix followed by the new event, so recovery keeps exactly
//     what a reader saw before it.
//
// The corpus under testdata/fuzz holds a clean segment, a torn tail, a
// corrupt middle line, both stray names that once broke replay, and a
// campaign queue's transitions (internal/queue) ending in a torn tail.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, stray string) {
		if stray == "." || stray == ".." || strings.ContainsAny(stray, "/\\\x00") || len(stray) > 64 {
			return // not a file name in one directory
		}
		dir := t.TempDir()
		write := func(name string, b []byte) {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write(segmentName(0), []byte(olderSegment))
		write(segmentName(1), data)
		want, wantErr := Replay(dir)

		if stray != "" {
			if canonicalSegment.MatchString(stray) {
				return // part of the journal by design
			}
			write(stray, []byte(olderSegment))
			got, err := Replay(dir)
			if (err == nil) != (wantErr == nil) || encoded(got) != encoded(want) {
				t.Fatalf("stray %q changed Replay: %d events (err %v), want %d (err %v)", stray, len(got), err, len(want), wantErr)
			}
		}
		if !slices.IsSortedFunc(want, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) }) {
			t.Fatal("Replay returned events out of Seq order")
		}

		j, err := OpenJournal(dir, 0)
		if err != nil {
			t.Fatalf("OpenJournal: %v", err)
		}
		defer j.Close()
		next := j.LastSeq()
		for _, ev := range want {
			next = max(next, ev.Seq)
		}
		if wantErr != nil || next == ^uint64(0) {
			return // a corrupt middle line stays an error; nothing to compare
		}
		added := Event{Seq: next + 1, At: time.Unix(9, 0).UTC(), Typ: TypeLog, Run: NoRun, Message: "appended"}
		if err := j.Append(added); err != nil {
			t.Fatal(err)
		}
		got, err := Replay(dir)
		if err != nil {
			t.Fatalf("Replay after recovery: %v", err)
		}
		if encoded(got) != encoded(append(want, added)) {
			t.Fatalf("after recovery replayed %d events, want the %d that survived plus the appended one", len(got), len(want))
		}
	})
}

// olderSegment is the journal's first segment: two intact events.
const olderSegment = `{"seq":1,"at":"1970-01-01T00:00:01Z","type":"log","run":-1,"message":"one"}` + "\n" +
	`{"seq":2,"at":"1970-01-01T00:00:02Z","type":"log","run":-1,"message":"two"}` + "\n"

// canonicalSegment matches exactly the names fmt's %05d produces: five
// digits, or more without a leading zero.
var canonicalSegment = regexp.MustCompile(`^events-(\d{5}|[1-9]\d{5,})\.jsonl$`)

// encoded renders events as journal lines, for comparison.
func encoded(evs []Event) string {
	var b []byte
	for _, ev := range evs {
		b, _ = ev.AppendJSON(b)
		b = append(b, '\n')
	}
	return string(b)
}
