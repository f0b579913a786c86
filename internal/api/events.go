package api

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"pos/internal/eventlog"
)

// SetEvents attaches the live event pipeline, enabling
//
//	GET /api/v1/events    Server-Sent Events stream of experiment events
//
// The stream supports resume: a client reconnecting with the standard
// Last-Event-ID header (or ?last_id=N) is caught up from the experiment
// journal before going live, with sequence numbers deduplicating the
// hand-over — no event is lost or delivered twice across a reconnect.
// Filters: ?replica=, ?phase=, ?run=N.
func (s *Server) SetEvents(p *eventlog.Pipeline) { s.events = p }

// eventFilter is the server-side event selection of one SSE subscriber.
type eventFilter struct {
	replica string
	phase   string
	run     int // -1: any
}

func filterFromQuery(q url.Values) (eventFilter, error) {
	f := eventFilter{replica: q.Get("replica"), phase: q.Get("phase"), run: -1}
	if v := q.Get("run"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return f, fmt.Errorf("api: bad run filter %q", v)
		}
		f.run = n
	}
	return f, nil
}

func (f eventFilter) match(ev eventlog.Event) bool {
	if f.replica != "" && ev.Replica != f.replica {
		return false
	}
	if f.phase != "" && ev.Phase != f.phase {
		return false
	}
	if f.run >= 0 && ev.Run != f.run {
		return false
	}
	return true
}

// resumeCursor extracts the last sequence number the client saw, from the
// standard SSE Last-Event-ID header or the ?last_id query fallback.
func resumeCursor(r *http.Request) uint64 {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("last_id")
	}
	if v == "" {
		return 0
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// sseWriter frames one SSE stream's events into one reused buffer.
type sseWriter struct {
	w   io.Writer
	buf []byte
}

// write sends ev as one SSE message: an id: line, unless ev is synthetic
// (Seq 0) and must not regress the client's Last-Event-ID cursor, then a
// data: line holding the event's JSON.
func (s *sseWriter) write(ev eventlog.Event, withID bool) error {
	b := s.buf[:0]
	if withID {
		b = append(b, "id: "...)
		b = strconv.AppendUint(b, ev.Seq, 10)
		b = append(b, '\n')
	}
	b = append(b, "data: "...)
	b, err := ev.AppendJSON(b)
	if err != nil {
		return err
	}
	s.buf = append(b, "\n\n"...)
	_, err = s.w.Write(s.buf)
	return err
}

// streamEvents serves one SSE subscriber. The live subscription is taken
// BEFORE the journal catch-up, so events published during the replay buffer
// up instead of falling into a gap; the sequence cursor then skips whatever
// the replay already delivered. The subscriber's ring buffer never blocks
// the publishing campaign — a stalled client loses its own events (and can
// resume them from the journal), the runner never waits.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request) {
	p := s.events
	if p == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: no event pipeline attached"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("api: streaming unsupported"))
		return
	}
	filter, err := filterFromQuery(r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	cursor := resumeCursor(r)

	sub := p.Subscribe(0)
	defer sub.Close()
	eventSubscribers.Inc()
	defer eventSubscribers.Dec()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	sse := sseWriter{w: w}

	// Journal catch-up: everything the client missed, in order.
	if history, err := p.ReplaySince(cursor); err == nil {
		for _, ev := range history {
			if ev.Seq > cursor {
				cursor = ev.Seq
			}
			if !filter.match(ev) {
				continue
			}
			if sse.write(ev, true) != nil {
				return
			}
		}
		fl.Flush()
	}

	ctx := r.Context()
	for {
		ev, ok := sub.Next(ctx)
		if !ok {
			return
		}
		// Synthetic overflow notices (Seq 0) bypass cursor and filters: the
		// client must learn about the gap even when the dropped events would
		// have been filtered out, and the missing id: line keeps its resume
		// cursor intact.
		if ev.Typ == eventlog.TypeDropped {
			if sse.write(ev, false) != nil {
				return
			}
			fl.Flush()
			continue
		}
		if ev.Seq <= cursor || !filter.match(ev) {
			continue
		}
		cursor = ev.Seq
		if sse.write(ev, true) != nil {
			return
		}
		fl.Flush()
	}
}

// ErrStopStream, returned from a StreamEvents callback, ends the stream
// without error.
var ErrStopStream = errors.New("api: stop event stream")

// EventStreamOptions selects what StreamEvents receives.
type EventStreamOptions struct {
	// LastID resumes after the given sequence number (0: from live now,
	// with full journal catch-up when the server has one attached — pass
	// LastID 0 to receive the complete history).
	LastID uint64
	// Replica/Phase filter server-side when non-empty.
	Replica string
	Phase   string
	// Run narrows the stream to a single run index when FilterRun is set
	// (run indexes start at 0, so a plain zero can't carry the meaning).
	Run       int
	FilterRun bool
}

// StreamEvents subscribes to the server's event stream and invokes fn for
// every received event until ctx ends, the server closes the stream, or fn
// returns an error (ErrStopStream for a clean stop). The connection carries
// no client-side deadline — event streams are long-lived by design.
func (c *Client) StreamEvents(ctx context.Context, opts EventStreamOptions, fn func(eventlog.Event) error) error {
	q := url.Values{}
	if opts.Replica != "" {
		q.Set("replica", opts.Replica)
	}
	if opts.Phase != "" {
		q.Set("phase", opts.Phase)
	}
	if opts.FilterRun {
		q.Set("run", strconv.Itoa(opts.Run))
	}
	path := "/api/v1/events"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	if opts.LastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(opts.LastID, 10))
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("api: GET /api/v1/events: HTTP %d", resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			if len(data) == 0 {
				continue
			}
			ev, err := eventlog.Decode(data)
			if err != nil {
				return fmt.Errorf("api: decoding event: %w", err)
			}
			data = data[:0]
			if err := fn(ev); err != nil {
				if errors.Is(err, ErrStopStream) {
					return nil
				}
				return err
			}
		case bytes.HasPrefix(line, []byte("data:")):
			data = append(data[:0], bytes.TrimSpace(line[len("data:"):])...)
		default:
			// id:/comment lines — the seq travels inside the JSON too.
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return fmt.Errorf("api: event stream: %w", err)
	}
	return nil
}
