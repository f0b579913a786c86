package telemetry

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzParseTraceParent feeds the parser arbitrary header values. It must
// never panic; what it accepts must be a lowercase-hex 32-character trace ID
// and 16-character span ID, neither all zero; and formatting an accepted pair
// must parse back to the same pair. The seeds live in testdata/fuzz.
func FuzzParseTraceParent(f *testing.F) {
	f.Fuzz(func(t *testing.T, header string) {
		tid, sid, ok := ParseTraceParent(header)
		if !ok {
			return
		}
		for _, id := range []struct {
			name, val string
			n         int
		}{{"trace", tid, 32}, {"span", sid, 16}} {
			if len(id.val) != id.n || strings.Trim(id.val, "0123456789abcdef") != "" {
				t.Fatalf("%q: %s ID %q is not %d lowercase hex characters", header, id.name, id.val, id.n)
			}
			if strings.Trim(id.val, "0") == "" {
				t.Fatalf("%q: accepted an all-zero %s ID", header, id.name)
			}
		}
		gotT, gotS, ok := ParseTraceParent(FormatTraceParent(tid, sid))
		if !ok || gotT != tid || gotS != sid {
			t.Fatalf("%q: reformatted pair parses to (%q, %q, %v), want (%q, %q, true)", header, gotT, gotS, ok, tid, sid)
		}
	})
}

func TestTraceParentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	if len(tid) != 32 || len(sid) != 16 {
		t.Fatalf("id lengths = %d/%d, want 32/16", len(tid), len(sid))
	}
	tp := FormatTraceParent(tid, sid)
	gotT, gotS, ok := ParseTraceParent(tp)
	if !ok || gotT != tid || gotS != sid {
		t.Fatalf("round trip %q = (%q, %q, %v)", tp, gotT, gotS, ok)
	}
}

func TestParseTraceParentRejectsMalformed(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if _, _, ok := ParseTraceParent(valid); !ok {
		t.Fatalf("valid header rejected: %s", valid)
	}
	// Future versions may carry extra fields; the leading ones still parse.
	if _, _, ok := ParseTraceParent("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Error("future-version header with extra field rejected")
	}
	bad := []string{
		"",
		"garbage",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",          // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", // version 00 is exactly 4 fields
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // version ff reserved
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",       // all-zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",       // all-zero span id
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",       // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7-01",         // short trace id
		"0-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",        // short version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-1",        // short flags
	}
	for _, s := range bad {
		if _, _, ok := ParseTraceParent(s); ok {
			t.Errorf("accepted malformed traceparent %q", s)
		}
	}
}

func TestNewLinkedTraceAdoptsIdentity(t *testing.T) {
	parent := NewTrace("posctl:submit")
	tp := parent.Root().TraceParent()

	linked := NewLinkedTrace("campaign:x", tp)
	if linked.ID() != parent.ID() {
		t.Fatalf("linked trace id = %s, want submitter's %s", linked.ID(), parent.ID())
	}
	linked.Root().StartChild("boot").End()
	linked.Finish()
	recs := linked.Records()
	if recs[0].ParentSpanID != parent.Root().SpanID() {
		t.Errorf("linked root's parent span = %q, want remote %q",
			recs[0].ParentSpanID, parent.Root().SpanID())
	}
	if recs[1].ParentSpanID != recs[0].SpanID {
		t.Errorf("child's parent span = %q, want local root %q", recs[1].ParentSpanID, recs[0].SpanID)
	}
	for _, r := range recs {
		if r.TraceID != parent.ID() {
			t.Errorf("span %q trace id = %q, want %q", r.Name, r.TraceID, parent.ID())
		}
	}
}

func TestNewLinkedTraceMalformedFallsBackToFreshRoot(t *testing.T) {
	for _, tp := range []string{"", "garbage", "00-zz-yy-01"} {
		tr := NewLinkedTrace("campaign:x", tp)
		if tr == nil || tr.ID() == "" || tr.ID() == zeroTraceID {
			t.Fatalf("traceparent %q: no fresh root trace", tp)
		}
		if got := tr.Records()[0].ParentSpanID; got != "" {
			t.Errorf("traceparent %q: fresh root has parent %q", tp, got)
		}
	}
}

func TestSpanIDsUniqueAndRecorded(t *testing.T) {
	SetIDSeed(42)
	tr := NewTrace("root")
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		tr.Root().StartChild("c").End()
	}
	tr.Finish()
	for _, r := range tr.Records() {
		if len(r.SpanID) != 16 || seen[r.SpanID] {
			t.Fatalf("span id %q duplicate or malformed", r.SpanID)
		}
		seen[r.SpanID] = true
	}
}

func TestContextTraceParentCarriage(t *testing.T) {
	ctx := context.Background()
	if got := TraceParentFromContext(ctx); got != "" {
		t.Fatalf("untraced context traceparent = %q", got)
	}
	// Malformed values are dropped at install time.
	if ctx2 := ContextWithTraceParent(ctx, "junk"); PendingTraceParent(ctx2) != "" {
		t.Error("malformed traceparent survived ContextWithTraceParent")
	}
	tr := NewTrace("root")
	tp := tr.Root().TraceParent()
	ctx = ContextWithTraceParent(ctx, tp)
	if got := PendingTraceParent(ctx); got != tp {
		t.Fatalf("pending traceparent = %q, want %q", got, tp)
	}
	// An active span takes precedence over a pending remote parent.
	sctx, span := StartSpan(ContextWithTrace(ctx, tr), "child")
	if got := TraceParentFromContext(sctx); got != span.TraceParent() {
		t.Fatalf("active-span traceparent = %q, want %q", got, span.TraceParent())
	}
}

func TestChromeTraceStitchedLanePerProc(t *testing.T) {
	posctl := NewTrace("posctl:submit")
	posctl.SetProcess("posctl")
	posctl.Finish()
	camp := NewLinkedTrace("campaign:x", posctl.Root().TraceParent())
	camp.SetProcess("controller")
	camp.Root().StartChild("replica:a").End()
	camp.Finish()

	recs := append(posctl.Records(), camp.Records()...)
	data, err := ChromeTrace(recs)
	if err != nil {
		t.Fatal(err)
	}
	var events []ChromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatal(err)
	}
	pids := map[string]map[int]bool{}
	for _, ev := range events {
		proc := ev.Args["proc"]
		if pids[proc] == nil {
			pids[proc] = map[int]bool{}
		}
		pids[proc][ev.Pid] = true
	}
	if len(pids["posctl"]) != 1 || len(pids["controller"]) != 1 {
		t.Fatalf("per-proc pids = %v, want one pid per proc", pids)
	}
	for p := range pids["posctl"] {
		if pids["controller"][p] {
			t.Fatalf("posctl and controller share pid %d", p)
		}
	}
}

func TestRecordsAtClosesOpenSpans(t *testing.T) {
	tr := NewTrace("campaign:x")
	child := tr.Root().StartChild("run 1")
	now := tr.Records()[0].Start.Add(1e9) // +1s
	recs := tr.RecordsAt(now)
	for _, r := range recs {
		if !r.End.Equal(now) {
			t.Errorf("span %q end = %v, want snapshot time %v", r.Name, r.End, now)
		}
	}
	child.End()
	tr.Finish()
	// The snapshot must not have mutated the real spans: the child ended
	// well before the +1s synthetic snapshot time.
	if final := tr.Records(); final[1].End.Equal(now) {
		t.Error("RecordsAt leaked its synthetic end time into the span")
	}
}
