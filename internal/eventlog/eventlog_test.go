package eventlog

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testClock() func() time.Time {
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(time.Duration(n) * time.Second)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "events")
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Event, 0, 10)
	for i := 1; i <= 10; i++ {
		ev := Event{
			Seq: uint64(i), At: time.Unix(int64(1000+i), 0).UTC(),
			Typ: TypeProgress, Phase: "measurement", Run: i - 1, TotalRuns: 10,
			Replica: "replica0", Message: fmt.Sprintf("run %d", i-1),
		}
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
		want = append(want, ev)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestJournalRotation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "events")
	j, err := OpenJournal(dir, 256) // tiny segments force rotation
	if err != nil {
		t.Fatal(err)
	}
	const total = 50
	for i := 1; i <= total; i++ {
		ev := Event{Seq: uint64(i), At: time.Unix(int64(i), 0).UTC(), Typ: TypeLog,
			Run: NoRun, Message: fmt.Sprintf("event number %d with some padding text", i)}
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", len(segs))
	}
	got, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("replayed %d events across %d segments, want %d", len(got), len(segs), total)
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	// ReplaySince skips the prefix exactly.
	tail, err := ReplaySince(dir, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 10 || tail[0].Seq != 41 {
		t.Fatalf("ReplaySince(40) = %d events starting at %d, want 10 starting at 41", len(tail), tail[0].Seq)
	}
}

func TestJournalTornTailRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "events")
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := j.Append(Event{Seq: uint64(i), At: time.Unix(int64(i), 0).UTC(), Typ: TypeLog, Run: NoRun}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Simulate a crash mid-append: tear the final line.
	seg := filepath.Join(dir, "events-00000.jsonl")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	// Replay on the damaged journal drops only the torn line.
	got, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("replayed %d events from torn journal, want 4", len(got))
	}

	// Reopen truncates the tail and continues the sequence.
	j2, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if last := j2.LastSeq(); last != 4 {
		t.Fatalf("recovered LastSeq = %d, want 4", last)
	}
	if err := j2.Append(Event{Seq: 5, At: time.Unix(5, 0).UTC(), Typ: TypeLog, Run: NoRun}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	got, err = Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[4].Seq != 5 {
		t.Fatalf("after recovery replay has %d events (last seq %d), want 5 ending at 5", len(got), got[len(got)-1].Seq)
	}
}

func TestBrokerSlowSubscriberDropsNotBlocks(t *testing.T) {
	b := NewBroker()
	slow := b.Subscribe(4) // never read until the end
	fast := b.Subscribe(64)
	defer slow.Close()
	defer fast.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 32; i++ {
			b.Publish(Event{Seq: uint64(i), Typ: TypeLog, Run: NoRun})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a stalled subscriber")
	}

	if d := slow.Dropped(); d != 32-4 {
		t.Fatalf("slow subscriber dropped %d events, want %d", d, 32-4)
	}
	// The slow subscriber is first told about the gap (one synthetic
	// overflow notice), then sees the newest events, in order.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	notice, ok := slow.Next(ctx)
	if !ok || notice.Typ != TypeDropped || notice.Attrs["dropped"] != "28" {
		t.Fatalf("first slow.Next = %+v/%v, want a TypeDropped notice for 28 events", notice, ok)
	}
	for want := uint64(29); want <= 32; want++ {
		ev, ok := slow.Next(ctx)
		if !ok || ev.Seq != want {
			t.Fatalf("slow.Next = %v/%v, want seq %d", ev.Seq, ok, want)
		}
	}
	// The fast subscriber lost nothing.
	if d := fast.Dropped(); d != 0 {
		t.Fatalf("fast subscriber dropped %d events", d)
	}
	for want := uint64(1); want <= 32; want++ {
		ev, ok := fast.Next(ctx)
		if !ok || ev.Seq != want {
			t.Fatalf("fast.Next = %v/%v, want seq %d", ev.Seq, ok, want)
		}
	}
}

func TestSubscriptionNextUnblocksOnClose(t *testing.T) {
	b := NewBroker()
	sub := b.Subscribe(4)
	go func() {
		time.Sleep(10 * time.Millisecond)
		sub.Close()
	}()
	if _, ok := sub.Next(context.Background()); ok {
		t.Fatal("Next returned an event from an empty closed subscription")
	}
}

func TestPipelinePublishJournalsAndBroadcasts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "events")
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline()
	p.SetClock(testClock())
	p.AttachJournal(j)
	sub := p.Subscribe(16)
	defer sub.Close()

	for i := 0; i < 5; i++ {
		p.Publish(Event{Typ: TypeProgress, Phase: "measurement", Run: i, Message: "go"})
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		ev, ok := sub.Next(ctx)
		if !ok {
			t.Fatal("subscriber starved")
		}
		if ev.Seq != uint64(i+1) || ev.Run != i || ev.At.IsZero() {
			t.Fatalf("event %d: %+v", i, ev)
		}
	}
	if p.DetachJournal() != j {
		t.Fatal("DetachJournal did not return the attached journal")
	}
	j.Close()
	got, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("journal holds %d events, want 5", len(got))
	}
	// Replay through the pipeline after detach: no journal, no history.
	if evs, err := p.ReplaySince(0); err != nil || evs != nil {
		t.Fatalf("ReplaySince on journal-less pipeline = %v, %v", evs, err)
	}
}

func TestPipelineResumesSequenceFromJournal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "events")
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline()
	p.AttachJournal(j)
	for i := 0; i < 3; i++ {
		p.Publish(Event{Typ: TypeLog, Run: NoRun})
	}
	p.DetachJournal()
	j.Close()

	// A fresh controller (crash restart) reopens the same journal: the new
	// pipeline continues at seq 4, never reissuing ids.
	j2, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	p2 := NewPipeline()
	p2.AttachJournal(j2)
	ev := p2.Publish(Event{Typ: TypeLog, Run: NoRun})
	if ev.Seq != 4 {
		t.Fatalf("resumed pipeline published seq %d, want 4", ev.Seq)
	}
}

func TestPublishConcurrentSequenceUnique(t *testing.T) {
	p := NewPipeline()
	sub := p.Subscribe(4096)
	defer sub.Close()
	var wg sync.WaitGroup
	const goroutines, each = 8, 100
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p.Publish(Event{Typ: TypeLog, Run: NoRun})
			}
		}()
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for i := 0; i < goroutines*each; i++ {
		ev, ok := sub.Next(ctx)
		if !ok {
			t.Fatalf("starved after %d events", i)
		}
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
	if p.LastSeq() != goroutines*each {
		t.Fatalf("LastSeq = %d, want %d", p.LastSeq(), goroutines*each)
	}
}

// TestPublishConcurrentDeliversInSeqOrder: with several goroutines publishing
// at once, a subscriber receives every event in strictly increasing Seq order
// with none missing. Seq doubles as the SSE resume cursor, so a subscriber
// that saw 6 before 5 would skip 5 for good.
func TestPublishConcurrentDeliversInSeqOrder(t *testing.T) {
	const publishers, each = 4, 200
	for iter := 0; iter < 50; iter++ {
		p := NewPipeline()
		sub := p.Subscribe(publishers * each)
		var wg sync.WaitGroup
		for g := 0; g < publishers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					p.Publish(Event{Typ: TypeLog, Run: NoRun})
				}
			}()
		}
		wg.Wait()
		sub.Close()
		for want := uint64(1); want <= publishers*each; want++ {
			ev, ok := sub.Next(context.Background())
			if !ok || ev.Seq != want {
				t.Fatalf("iteration %d: delivered seq %d (ok=%v), want %d", iter, ev.Seq, ok, want)
			}
		}
	}
}

// TestDroppedNoticeOncePerGap: the synthetic overflow notice reports each
// gap exactly once, carries no sequence number (it must not advance a resume
// cursor), and a further overflow produces a fresh notice for the new gap.
func TestDroppedNoticeOncePerGap(t *testing.T) {
	b := NewBroker()
	sub := b.Subscribe(2)
	defer sub.Close()
	for i := 1; i <= 5; i++ {
		b.Publish(Event{Seq: uint64(i), Typ: TypeLog, Run: NoRun})
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()

	notice, ok := sub.Next(ctx)
	if !ok || notice.Typ != TypeDropped {
		t.Fatalf("first Next = %+v/%v, want TypeDropped", notice, ok)
	}
	if notice.Seq != 0 {
		t.Fatalf("synthetic notice carries seq %d, must be 0", notice.Seq)
	}
	if notice.Attrs["dropped"] != "3" || notice.At.IsZero() {
		t.Fatalf("notice = %+v, want dropped=3 with a timestamp", notice)
	}
	// The gap is acknowledged: the buffered events follow without another
	// notice.
	for want := uint64(4); want <= 5; want++ {
		ev, ok := sub.Next(ctx)
		if !ok || ev.Seq != want || ev.Typ == TypeDropped {
			t.Fatalf("Next = %+v/%v, want seq %d", ev, ok, want)
		}
	}
	// A second overflow yields a second notice for exactly the new gap.
	for i := 6; i <= 9; i++ {
		b.Publish(Event{Seq: uint64(i), Typ: TypeLog, Run: NoRun})
	}
	notice, ok = sub.Next(ctx)
	if !ok || notice.Typ != TypeDropped || notice.Attrs["dropped"] != "2" {
		t.Fatalf("second notice = %+v/%v, want dropped=2", notice, ok)
	}
}
