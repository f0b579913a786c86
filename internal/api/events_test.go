package api

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"pos/internal/eventlog"
	"pos/internal/telemetry"
	"pos/internal/testbed"
)

func setupEvents(t *testing.T) (*Server, *Client, *eventlog.Pipeline) {
	t.Helper()
	tb := testbed.New()
	t.Cleanup(tb.Close)
	srv, err := Serve(tb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	p := eventlog.NewPipeline()
	srv.SetEvents(p)
	return srv, NewClient(srv.Addr()), p
}

// waitSubscribers blocks until the SSE subscriber gauge reaches n — the
// only way to know a streaming client's subscription is attached before
// publishing events it must see. The gauge is read by its exported name.
func waitSubscribers(t *testing.T, n float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, _ := telemetry.Default.Total("pos_api_event_subscribers")
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscribers = %v, want %v", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEventStreamLiveAndFiltered(t *testing.T) {
	_, c, p := setupEvents(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var got []eventlog.Event
	done := make(chan error, 1)
	go func() {
		done <- c.StreamEvents(ctx, EventStreamOptions{Replica: "alpha"}, func(ev eventlog.Event) error {
			got = append(got, ev)
			if ev.Message == "end" {
				return ErrStopStream
			}
			return nil
		})
	}()
	waitSubscribers(t, 1)
	p.Publish(eventlog.Event{Replica: "beta", Message: "other replica"})
	p.Publish(eventlog.Event{Replica: "alpha", Phase: "setup", Message: "hello"})
	p.Publish(eventlog.Event{Replica: "alpha", Message: "end"})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Message != "hello" || got[1].Message != "end" {
		t.Fatalf("filtered stream = %+v", got)
	}
	if got[0].Phase != "setup" || got[0].Replica != "alpha" || got[0].Seq == 0 {
		t.Errorf("event fields lost in transit: %+v", got[0])
	}
}

// TestEventStreamResumeNoLossNoDup is the reconnect contract: a client that
// dies mid-stream and reconnects with the last sequence number it saw gets
// journal catch-up plus live hand-over with no event lost and none repeated
// — including events published while it was away.
func TestEventStreamResumeNoLossNoDup(t *testing.T) {
	_, c, p := setupEvents(t)
	j, err := eventlog.OpenJournal(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachJournal(j)
	defer j.Close()

	for i := 0; i < 30; i++ {
		p.Publish(eventlog.Event{Replica: "alpha", Message: fmt.Sprintf("m%d", i)})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var seen []eventlog.Event
	err = c.StreamEvents(ctx, EventStreamOptions{}, func(ev eventlog.Event) error {
		seen = append(seen, ev)
		if len(seen) == 12 {
			return ErrStopStream // the "connection died" point
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Campaign keeps publishing while the watcher is disconnected.
	for i := 30; i < 40; i++ {
		p.Publish(eventlog.Event{Replica: "alpha", Message: fmt.Sprintf("m%d", i)})
	}

	err = c.StreamEvents(ctx, EventStreamOptions{LastID: seen[len(seen)-1].Seq},
		func(ev eventlog.Event) error {
			seen = append(seen, ev)
			if len(seen) == 40 {
				return ErrStopStream
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}

	if len(seen) != 40 {
		t.Fatalf("events across both sessions = %d, want 40", len(seen))
	}
	for i, ev := range seen {
		if want := fmt.Sprintf("m%d", i); ev.Message != want {
			t.Fatalf("event %d = %q, want %q (loss or duplication across resume)", i, ev.Message, want)
		}
		if i > 0 && ev.Seq != seen[i-1].Seq+1 {
			t.Fatalf("seq gap at %d: %d after %d", i, ev.Seq, seen[i-1].Seq)
		}
	}
}

// TestStalledSubscriberDoesNotSlowPublisher: an SSE client that stops
// reading must never back-pressure the experiment. Its ring fills and drops;
// the publisher keeps its pace.
func TestStalledSubscriberDoesNotSlowPublisher(t *testing.T) {
	srv, _, p := setupEvents(t)
	req, err := http.NewRequest(http.MethodGet, "http://"+srv.Addr()+"/api/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() // never read: the subscriber is wedged
	waitSubscribers(t, 1)

	start := time.Now()
	for i := 0; i < 20000; i++ {
		p.Publish(eventlog.Event{Replica: "alpha", Message: "spam"})
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("20k publishes with a stalled subscriber took %v", elapsed)
	}
}
