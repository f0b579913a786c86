package eventlog

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"pos/internal/telemetry"
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
	// The journal's own replay reads the segments it rotated through
	// without listing them, and reads the same events.
	if live, err := j.ReplaySince(0); err != nil || !reflect.DeepEqual(live, got) {
		t.Fatalf("Journal.ReplaySince = %d events, %v; Replay read %d", len(live), err, len(got))
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

// TestJournalEmptyNewestSegment: a crash between a rotation's create and its
// first write leaves the newest segment empty. Reopening continues the
// stream after the last seq of the segment before, so later appends replay
// after everything already journaled.
func TestJournalEmptyNewestSegment(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := j.Append(Event{Seq: uint64(i), At: time.Unix(int64(i), 0).UTC(), Typ: TypeLog, Run: NoRun, Message: "padding to rotate"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("segments %v, %v: want a rotated journal", segs, err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(segs[len(segs)-1]+1)), []byte(`{"seq":11,"at":`), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err = OpenJournal(dir, 200)
	if err != nil {
		t.Fatal(err)
	}
	if last := j.LastSeq(); last != 10 {
		t.Fatalf("LastSeq over an empty newest segment = %d, want 10", last)
	}
	if err := j.Append(Event{Seq: j.LastSeq() + 1, At: time.Unix(11, 0).UTC(), Typ: TypeLog, Run: NoRun}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	got, err := Replay(dir)
	if err != nil || len(got) != 11 || got[10].Seq != 11 {
		t.Fatalf("replayed %d events (%v), want seqs 1..11 in order", len(got), err)
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

// Publish and RecordUnder swallow journal failures, so observability never
// fails the experiment it observes; pos_events_journal_errors_total is the
// only trace of the events the journal lost. A journal that cannot be opened
// and an append to a closed one each count once, and the live subscriber
// still gets the event.
func TestJournalFailuresCounted(t *testing.T) {
	failures := func() float64 {
		v, _ := telemetry.Default.Total("pos_events_journal_errors_total")
		return v
	}
	before := failures()
	expDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(expDir, JournalDir), nil, 0o600); err != nil {
		t.Fatal(err)
	}
	p := NewPipeline()
	p.RecordUnder(expDir)() // events/ is a file: no journal
	j, err := OpenJournal(filepath.Join(t.TempDir(), JournalDir), 0)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachJournal(j)
	j.Close()
	sub := p.Subscribe(1)
	defer sub.Close()
	p.Publish(Event{Typ: TypeLog, Run: NoRun, Message: "lost to the journal"})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if ev, ok := sub.Next(ctx); !ok || ev.Message != "lost to the journal" {
		t.Fatalf("subscriber got %+v, %v", ev, ok)
	}
	if got := failures() - before; got != 2 {
		t.Errorf("pos_events_journal_errors_total rose by %v, want 2", got)
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

// TestRingGrowsAcrossWrappedHead: a consumer that lags while its ring grows
// still receives every event once, in Seq order. The publish/consume rhythm
// makes the ring fill while its oldest event sits past slot 0, so growing
// has to unwrap it.
func TestRingGrowsAcrossWrappedHead(t *testing.T) {
	b := NewBroker()
	sub := b.Subscribe(DefaultSubscriberBuffer)
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	var seq, want uint64
	wrappedGrowths := 0
	for round := 1; round <= 12; round++ {
		for i := 0; i < 3*round; i++ {
			sub.mu.Lock()
			full, wrapped := sub.n == len(sub.buf), sub.head > 0
			sub.mu.Unlock()
			if full && wrapped {
				wrappedGrowths++
			}
			seq++
			b.Publish(Event{Seq: seq, Typ: TypeLog, Run: NoRun})
		}
		for i := 0; i < round; i++ {
			want++
			if ev, ok := sub.Next(ctx); !ok || ev.Seq != want {
				t.Fatalf("round %d: Next = seq %d/%v, want %d", round, ev.Seq, ok, want)
			}
		}
	}
	for want < seq {
		want++
		if ev, ok := sub.Next(ctx); !ok || ev.Seq != want {
			t.Fatalf("drain: Next = seq %d/%v, want %d", ev.Seq, ok, want)
		}
	}
	if wrappedGrowths == 0 {
		t.Fatal("the ring never grew while its head was wrapped; the test no longer covers the unwrap")
	}
	if d := sub.Dropped(); d != 0 {
		t.Errorf("dropped %d events below the cap", d)
	}
	if n := len(sub.buf); n > DefaultSubscriberBuffer {
		t.Errorf("ring grew to %d slots past its cap %d", n, DefaultSubscriberBuffer)
	}
}

// TestRingDropsPastCap: pushing cap+k events into an unread subscription
// grows the ring to exactly its cap, drops exactly the k oldest, and tells
// the consumer with one TypeDropped notice before the cap newest events.
func TestRingDropsPastCap(t *testing.T) {
	const limit, k = 100, 7 // a cap the doubling does not land on
	b := NewBroker()
	sub := b.Subscribe(limit)
	defer sub.Close()
	for i := 1; i <= limit+k; i++ {
		b.Publish(Event{Seq: uint64(i), Typ: TypeLog, Run: NoRun})
	}
	if n := len(sub.buf); n != limit {
		t.Errorf("ring holds %d slots, want its cap %d", n, limit)
	}
	if d := sub.Dropped(); d != k {
		t.Fatalf("dropped %d, want %d", d, k)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	notice, ok := sub.Next(ctx)
	if !ok || notice.Typ != TypeDropped || notice.Attrs["dropped"] != "7" {
		t.Fatalf("first Next = %+v/%v, want one TypeDropped notice for 7 events", notice, ok)
	}
	for want := uint64(k + 1); want <= limit+k; want++ {
		ev, ok := sub.Next(ctx)
		if !ok || ev.Seq != want || ev.Typ == TypeDropped {
			t.Fatalf("Next = %+v/%v, want seq %d", ev, ok, want)
		}
	}
}

// TestPublishToWarmSubscriberAllocatesNothing: once a subscriber's ring has
// grown, publishing to it allocates nothing.
func TestPublishToWarmSubscriberAllocatesNothing(t *testing.T) {
	b := NewBroker()
	sub := b.Subscribe(0)
	defer sub.Close()
	ev := Event{Typ: TypeLog, Run: NoRun, Message: "run 1/8", Attrs: map[string]string{"k": "v"}}
	ctx := context.Background()
	for i := 0; i < DefaultSubscriberBuffer; i++ {
		b.Publish(ev)
	}
	for i := 0; i < DefaultSubscriberBuffer; i++ {
		sub.Next(ctx)
	}
	// The warm ring has room for every publish the measurement makes.
	if allocs := testing.AllocsPerRun(DefaultSubscriberBuffer/2, func() { b.Publish(ev) }); allocs != 0 {
		t.Errorf("Publish allocates %.1f objects per event", allocs)
	}
}

// TestNextClearsPoppedSlot: the ring does not keep an event the consumer
// already has, so its attributes can be collected.
func TestNextClearsPoppedSlot(t *testing.T) {
	b := NewBroker()
	sub := b.Subscribe(4)
	defer sub.Close()
	b.Publish(Event{Seq: 1, Typ: TypeLog, Run: NoRun, Message: "m", Attrs: map[string]string{"k": "v"}})
	if _, ok := sub.Next(context.Background()); !ok {
		t.Fatal("Next returned nothing")
	}
	for i, slot := range sub.buf {
		if slot.Attrs != nil || slot.Message != "" {
			t.Errorf("slot %d still holds %+v after Next", i, slot)
		}
	}
}
