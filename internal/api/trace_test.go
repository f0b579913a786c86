package api

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pos/internal/eventlog"
	"pos/internal/image"
	"pos/internal/queue"
	"pos/internal/telemetry"
	"pos/internal/testbed"
)

// traceSetup serves a testbed with one node.
func traceSetup(t *testing.T) (*Server, *Client) {
	t.Helper()
	tb := testbed.New()
	t.Cleanup(tb.Close)
	if err := tb.Images.Add(image.DefaultDebianBuster()); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddNode("vriga"); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(tb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, NewClient(srv.Addr())
}

// roundTrips records the traceparent each request carried out and each
// response carried back.
type roundTrips struct {
	next http.RoundTripper

	mu       sync.Mutex
	sent     []string
	received []string
}

func (rt *roundTrips) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := rt.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	rt.mu.Lock()
	rt.sent = append(rt.sent, req.Header.Get(telemetry.TraceParentHeader))
	rt.received = append(rt.received, resp.Header.Get(telemetry.TraceParentHeader))
	rt.mu.Unlock()
	return resp, nil
}

// TestTraceParentRoundTrip: a client call made inside a traced context
// carries the traceparent header and the server echoes it on the response.
// Run under -race in the verify-race tier — concurrent traced requests share
// the client and the server's instrumentation.
func TestTraceParentRoundTrip(t *testing.T) {
	_, c := traceSetup(t)
	rt := &roundTrips{next: http.DefaultTransport}
	c.hc = &http.Client{Transport: rt}
	tr := telemetry.NewTrace("posctl:nodes")
	ctx := telemetry.ContextWithTrace(context.Background(), tr)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []NodeStatus
			if err := c.doCtx(ctx, http.MethodGet, "/api/v1/nodes", nil, &out, 0); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	want := tr.Root().TraceParent()
	if len(rt.sent) != 8 {
		t.Fatalf("round trips = %d, want 8", len(rt.sent))
	}
	for i := range rt.sent {
		if rt.sent[i] != want {
			t.Errorf("request traceparent = %q, want %q", rt.sent[i], want)
		}
		if rt.received[i] != want {
			t.Errorf("response traceparent = %q, want echo of %q", rt.received[i], want)
		}
	}
}

// TestTraceParentEchoedOnResponse: the wire-level contract.
func TestTraceParentEchoedOnResponse(t *testing.T) {
	_, c := traceSetup(t)
	tp := telemetry.FormatTraceParent(telemetry.NewTraceID(), telemetry.NewSpanID())
	req, err := http.NewRequest(http.MethodGet, c.base+"/api/v1/nodes", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(telemetry.TraceParentHeader, tp)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if got := resp.Header.Get(telemetry.TraceParentHeader); got != tp {
		t.Errorf("response traceparent = %q, want echo of %q", got, tp)
	}
}

// TestMalformedTraceParentNeverFails: garbage tracing metadata from a peer
// must not fail the request — the server falls back to an untraced context
// and answers 200.
func TestMalformedTraceParentNeverFails(t *testing.T) {
	_, c := traceSetup(t)
	for _, tp := range []string{
		"garbage",
		"00-zzzz-yyyy-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-0000000000000000-01",
	} {
		req, err := http.NewRequest(http.MethodGet, c.base+"/api/v1/nodes", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(telemetry.TraceParentHeader, tp)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("traceparent %q: status %d, want 200", tp, resp.StatusCode)
		}
		if got := resp.Header.Get(telemetry.TraceParentHeader); got != "" {
			t.Errorf("traceparent %q echoed as %q, want dropped", tp, got)
		}
	}
}

// TestQueueSubmissionKeepsSubmitterTrace: a campaign submitted inside a
// traced context keeps the submitter's trace ID through queue admission and
// dispatch — the launcher's context carries the original traceparent, not a
// server-side identity.
func TestQueueSubmissionKeepsSubmitterTrace(t *testing.T) {
	tb := testbed.New()
	t.Cleanup(tb.Close)
	if _, err := tb.AddNode("vriga"); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(tb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	type launched struct {
		traceparent string
		admission   eventlog.Admission
		ok          bool
	}
	got := make(chan launched, 1)
	q, err := queue.Open(queue.Config{
		Dir:      t.TempDir(),
		Calendar: tb.Calendar,
		Launch: func(ctx context.Context, sub queue.Submission, ev *eventlog.Pipeline) error {
			adm, ok := eventlog.AdmissionFromContext(ctx)
			got <- launched{telemetry.PendingTraceParent(ctx), adm, ok}
			return nil
		},
		SweepInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	srv.SetQueue(q)

	c := NewClient(srv.Addr())
	tr := telemetry.NewTrace("posctl:submit")
	ctx := telemetry.ContextWithTrace(context.Background(), tr)
	view, err := c.SubmitCampaignContext(ctx, CampaignRequest{
		User: "alice", Name: "traced", Nodes: []string{"vriga"}, Minutes: 5,
	})
	if err != nil {
		t.Fatal(err)
	}

	select {
	case l := <-got:
		wantID := tr.ID()
		gotID, _, ok := telemetry.ParseTraceParent(l.traceparent)
		if !ok || gotID != wantID {
			t.Errorf("launch traceparent = %q (trace %q), want submitter trace %q",
				l.traceparent, gotID, wantID)
		}
		// The parent must be the submitter's span.
		if !strings.HasPrefix(l.traceparent, "00-"+wantID+"-"+tr.Root().SpanID()+"-") {
			t.Errorf("launch traceparent = %q, want parented under submitter span %q",
				l.traceparent, tr.Root().SpanID())
		}
		if !l.ok {
			t.Fatal("launch context carries no admission info")
		}
		if l.admission.SubmissionID == "" || l.admission.Submitted.IsZero() || l.admission.Admitted.IsZero() {
			t.Errorf("admission info incomplete: %+v", l.admission)
		}
		if l.admission.User != "alice" {
			t.Errorf("admission user = %q, want alice", l.admission.User)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("campaign %d never launched", view.ID)
	}
}
