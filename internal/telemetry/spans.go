package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Trace is one hierarchical span tree — a campaign or experiment execution.
// It is exported per experiment as a spans.json artifact next to the
// events/ journal, and convertible to Chrome trace-event format.
type Trace struct {
	mu           sync.Mutex
	clock        func() time.Time
	next         int
	spans        []*Span
	root         *Span
	traceID      string
	remoteParent string // span ID of the remote parent of the root ("" for a fresh root)
	proc         string // process lane for stitched Chrome rendering
}

// Span is one timed region of a trace (campaign → run → phase → exec). All
// methods are safe on a nil receiver, so un-traced code paths pay nothing.
type Span struct {
	tr *Trace

	// The fields below are guarded by tr.mu.
	id     int
	spanID string // 16-hex distributed identity, stable across processes
	parent int    // 0 for the root
	name   string
	start  time.Time
	end    time.Time
	attrs  map[string]string
}

// SpanRecord is the serialized form of a span in spans.json. The hex
// TraceID/SpanID/ParentSpanID triple is the cross-process identity (W3C
// traceparent compatible); the int ID/Parent pair remains the compact
// in-file structure older artifacts carry.
type SpanRecord struct {
	ID           int               `json:"id"`
	Parent       int               `json:"parent,omitempty"`
	TraceID      string            `json:"trace_id,omitempty"`
	SpanID       string            `json:"span_id,omitempty"`
	ParentSpanID string            `json:"parent_span_id,omitempty"`
	Proc         string            `json:"proc,omitempty"`
	Name         string            `json:"name"`
	Start        time.Time         `json:"start"`
	End          time.Time         `json:"end"`
	Attrs        map[string]string `json:"attrs,omitempty"`
}

// NewTrace starts a trace whose root span carries the given name, under a
// fresh trace ID.
func NewTrace(name string) *Trace {
	t := &Trace{clock: time.Now, next: 1, traceID: NewTraceID()}
	t.root = t.start(0, name, nil)
	return t
}

// NewLinkedTrace starts a trace that joins a remote causal tree: the trace
// adopts the traceparent's trace ID and parents its root span under the
// remote span, so this process's spans.json stitches into the submitter's
// trace. An empty or malformed traceparent falls back to a fresh root —
// linking is best effort, never an error.
func NewLinkedTrace(name, traceparent string) *Trace {
	tid, parent, ok := ParseTraceParent(traceparent)
	if !ok {
		return NewTrace(name)
	}
	t := &Trace{clock: time.Now, next: 1, traceID: tid, remoteParent: parent}
	t.root = t.start(0, name, nil)
	return t
}

// ID returns the trace's 32-hex-digit trace ID.
func (t *Trace) ID() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceID
}

// SetProcess labels every span record of this trace with a process lane
// ("controller", "runner", ...). The stitched Chrome rendering maps each
// distinct process to its own pid row.
func (t *Trace) SetProcess(proc string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.proc = proc
}

// SetClock overrides the timestamp source (tests, simulated time). Call
// before spans are started; the root span's start is rewritten.
func (t *Trace) SetClock(clock func() time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock = clock
	t.root.start = clock()
}

// Root returns the trace's root span.
func (t *Trace) Root() *Span { return t.root }

func (t *Trace) start(parent int, name string, attrs []string) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{tr: t, id: t.next, spanID: NewSpanID(), parent: parent, name: name, start: t.clock()}
	t.next++
	for i := 0; i+1 < len(attrs); i += 2 {
		if s.attrs == nil {
			s.attrs = make(map[string]string)
		}
		s.attrs[attrs[i]] = attrs[i+1]
	}
	t.spans = append(t.spans, s)
	return s
}

// Finish ends the root span (and any spans still open, so a trace cut short
// by a failure still renders with sane durations).
func (t *Trace) Finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock()
	for _, s := range t.spans {
		if s.end.IsZero() {
			s.end = now
		}
	}
}

// StartChild opens a child span directly on a parent span, for call sites
// that don't thread a context. Nil-safe.
func (s *Span) StartChild(name string, attrs ...string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(s.id, name, attrs)
}

// End closes the span. Nil-safe; ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.end.IsZero() {
		s.end = s.tr.clock()
	}
}

// SetAttr attaches a key/value to the span. Nil-safe.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.attrs == nil {
		s.attrs = make(map[string]string)
	}
	s.attrs[key] = value
}

// SetError marks the span failed with the error's text. Nil-safe, nil-error-safe.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.SetAttr("error", err.Error())
}

// TraceID returns the span's 32-hex trace ID ("" on a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.tr.traceID
}

// SpanID returns the span's 16-hex span ID ("" on a nil span).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// TraceParent renders the span's identity as a W3C traceparent header value
// ("" on a nil span) — what an outgoing request carries so the peer's spans
// stitch under this one.
func (s *Span) TraceParent() string {
	if s == nil {
		return ""
	}
	s.tr.mu.Lock()
	tid := s.tr.traceID
	s.tr.mu.Unlock()
	return FormatTraceParent(tid, s.spanID)
}

type spanCtxKey struct{}

// ContextWithSpan returns a context carrying the span as the current parent
// for StartSpan.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// ContextWithTrace installs the trace's root span into the context.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return ContextWithSpan(ctx, t.root)
}

// SpanFromContext returns the current span, or nil if the context is untraced.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// TraceFromContext returns the trace the context's span belongs to, if any.
func TraceFromContext(ctx context.Context) *Trace {
	if s := SpanFromContext(ctx); s != nil {
		return s.tr
	}
	return nil
}

// StartSpan opens a child of the context's current span and returns a context
// carrying the child. On an untraced context it returns (ctx, nil) — the nil
// span's methods are no-ops, so instrumented code needs no branches.
func StartSpan(ctx context.Context, name string, attrs ...string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.tr.start(parent.id, name, attrs)
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// Records returns the trace's spans as serializable records, ordered by id
// (creation order). Open spans report their start time as end.
func (t *Trace) Records() []SpanRecord {
	return t.records(time.Time{})
}

// RecordsAt snapshots the trace with still-open spans closed at now — a
// live view of an unfinished trace. The spans themselves are not mutated; a
// later Finish still stamps the real end times.
func (t *Trace) RecordsAt(now time.Time) []SpanRecord {
	return t.records(now)
}

func (t *Trace) records(openEnd time.Time) []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[int]*Span, len(t.spans))
	for _, s := range t.spans {
		byID[s.id] = s
	}
	out := make([]SpanRecord, 0, len(t.spans))
	for _, s := range t.spans {
		end := s.end
		if end.IsZero() {
			if !openEnd.IsZero() && openEnd.After(s.start) {
				end = openEnd
			} else {
				end = s.start
			}
		}
		var attrs map[string]string
		if len(s.attrs) > 0 {
			attrs = make(map[string]string, len(s.attrs))
			for k, v := range s.attrs {
				attrs[k] = v
			}
		}
		parentSpan := t.remoteParent
		if p, ok := byID[s.parent]; ok {
			parentSpan = p.spanID
		}
		out = append(out, SpanRecord{
			ID: s.id, Parent: s.parent, Name: s.name,
			TraceID: t.traceID, SpanID: s.spanID, ParentSpanID: parentSpan,
			Proc:  t.proc,
			Start: s.start, End: end, Attrs: attrs,
		})
	}
	return out
}

// RenderJSON serializes the trace for the spans.json artifact: one JSON
// object per line, ordered by span id, diff-friendly like the other archived
// artifacts.
func (t *Trace) RenderJSON() ([]byte, error) {
	var buf []byte
	for _, rec := range t.Records() {
		line, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	return buf, nil
}

// ParseSpans decodes a spans.json artifact produced by RenderJSON. Spans are
// stamped with the wall clock, so a clock stepped back mid-span can end one
// before it starts: such a span is clamped to zero length, as an open span
// is. An archive whose spans together cover more time than a time.Duration
// holds (about 292 years) is rejected: no analysis could measure it.
func ParseSpans(data []byte) ([]SpanRecord, error) {
	var out []SpanRecord
	var first, last time.Time
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var rec SpanRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("telemetry: parse spans: %w", err)
		}
		if rec.End.Before(rec.Start) {
			rec.End = rec.Start
		}
		if len(out) == 0 || rec.Start.Before(first) {
			first = rec.Start
		}
		if len(out) == 0 || rec.End.After(last) {
			last = rec.End
		}
		out = append(out, rec)
	}
	if !first.Add(last.Sub(first)).Equal(last) {
		return nil, fmt.Errorf("telemetry: parse spans: spans cover %s to %s, more than a time.Duration holds", first, last)
	}
	return out, nil
}

// ChromeEvent is one entry of the Chrome trace-event format ("X" complete
// events), loadable in chrome://tracing or Perfetto.
type ChromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds since trace start
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTrace converts span records to a Chrome trace-event JSON array.
// Lanes (tid) are assigned per depth-1 subtree — each replica or top-level
// phase gets its own row in the flamegraph; the root is lane 0. Stitched
// records spanning multiple processes get one pid per distinct Proc (the int
// span IDs only identify spans within one process's archive, so lanes are
// computed per process group).
func ChromeTrace(recs []SpanRecord) ([]byte, error) {
	if len(recs) == 0 {
		return []byte("[]"), nil
	}
	type laneKey struct {
		proc string
		id   int
	}
	byID := make(map[laneKey]SpanRecord, len(recs))
	for _, r := range recs {
		byID[laneKey{r.Proc, r.ID}] = r
	}
	// lane(proc, id): 0 for the process root, else the id of the span's
	// ancestor that is a direct child of that root — one flamegraph row per
	// replica / phase, scoped to the process. A visited set bounds the walk:
	// a corrupt archive whose int Parent fields form a cycle (never reaching
	// Parent==0) must not hang the converter, so a cycling span becomes its
	// own lane.
	lane := func(proc string, id int) int {
		seen := make(map[int]bool)
		for {
			if seen[id] {
				return id
			}
			seen[id] = true
			r, ok := byID[laneKey{proc, id}]
			if !ok {
				return id
			}
			if r.Parent == 0 {
				return 0
			}
			if p, ok := byID[laneKey{proc, r.Parent}]; !ok || p.Parent == 0 {
				return id
			}
			id = r.Parent
		}
	}
	// One pid per distinct process label, in order of first appearance; a
	// single-process trace keeps the historical pid 1.
	pids := map[string]int{}
	for _, r := range recs {
		if _, ok := pids[r.Proc]; !ok {
			pids[r.Proc] = 1 + len(pids)
		}
	}
	epoch := recs[0].Start
	for _, r := range recs {
		if r.Start.Before(epoch) {
			epoch = r.Start
		}
	}
	events := make([]ChromeEvent, 0, len(recs))
	for _, r := range recs {
		args := r.Attrs
		if r.Proc != "" {
			args = make(map[string]string, len(r.Attrs)+1)
			for k, v := range r.Attrs {
				args[k] = v
			}
			args["proc"] = r.Proc
		}
		events = append(events, ChromeEvent{
			Name: r.Name,
			Ph:   "X",
			Ts:   float64(r.Start.Sub(epoch)) / float64(time.Microsecond),
			Dur:  float64(r.End.Sub(r.Start)) / float64(time.Microsecond),
			Pid:  pids[r.Proc],
			Tid:  lane(r.Proc, r.ID),
			Args: args,
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	return json.MarshalIndent(events, "", "  ")
}
