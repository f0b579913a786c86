package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"pos/internal/api"
	"pos/internal/eventlog"
	"pos/internal/telemetry"
)

// topState is what the dashboard has learned from the SSE tail: the most
// recent events plus how many the stream admitted to dropping.
type topState struct {
	mu      sync.Mutex
	tail    []eventlog.Event // ring, newest last
	lastID  uint64
	dropped uint64
	stream  string // "connected", "reconnecting", ...
}

func (t *topState) apply(ev eventlog.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ev.Typ == "events.dropped" {
		var n uint64
		fmt.Sscanf(ev.Attrs["dropped"], "%d", &n)
		t.dropped += n
		return
	}
	if ev.Seq > t.lastID {
		t.lastID = ev.Seq
	}
	const tailLen = 10
	t.tail = append(t.tail, ev)
	if len(t.tail) > tailLen {
		t.tail = t.tail[len(t.tail)-tailLen:]
	}
}

func (t *topState) setStream(s string) {
	t.mu.Lock()
	t.stream = s
	t.mu.Unlock()
}

// topGauges are the point-in-time series the dashboard surfaces when
// present, in display order.
var topGauges = []string{
	"pos_sched_inflight_runs",
	"pos_sched_queue_depth",
	"pos_queue_depth",
	"pos_runtime_goroutines",
	"pos_runtime_heap_bytes",
	"pos_events_dropped_total",
	"pos_health_flight_records_total",
}

// topHistograms get a quantile line each when present.
var topHistograms = []string{
	"pos_run_measurement_seconds",
	"pos_api_request_seconds",
	"pos_runtime_gc_pause_seconds",
	"pos_runtime_sched_latency_seconds",
}

// cmdTop renders a live terminal dashboard for one controller: watchdog
// probe states from /api/v1/health, key metrics with histogram quantiles
// from /api/v1/metrics, and a tail of the SSE event stream. It survives
// controller restarts — both the poller and the stream reconnect.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "", "controller API address host:port (required)")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("top: -addr required (the host:port printed by posctl serve)")
	}
	if *interval < 100*time.Millisecond {
		*interval = 100 * time.Millisecond
	}
	c := api.NewClient(*addr)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	st := &topState{stream: "connecting"}
	go tailEvents(ctx, c, st)

	for {
		render(c, st, *addr)
		select {
		case <-ctx.Done():
			fmt.Println()
			return nil
		case <-time.After(*interval):
		}
	}
}

// tailEvents keeps one SSE subscription alive for the dashboard's lifetime,
// reconnecting with backoff and resuming from the last seen sequence number
// so a controller restart costs display continuity, not correctness.
func tailEvents(ctx context.Context, c *api.Client, st *topState) {
	const maxBackoff = 30 * time.Second
	backoff := time.Second
	for ctx.Err() == nil {
		st.mu.Lock()
		last := st.lastID
		st.mu.Unlock()
		// Optimistically connected: an immediate failure flips the status
		// to reconnecting before the next repaint anyway.
		st.setStream("connected")
		err := c.StreamEvents(ctx, api.EventStreamOptions{LastID: last}, func(ev eventlog.Event) error {
			st.apply(ev)
			return nil
		})
		if ctx.Err() != nil {
			return
		}
		st.setStream(fmt.Sprintf("reconnecting (%v)", err))
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// render repaints the dashboard once. A failed poll renders the error in
// place of the section — the dashboard never exits on a sick controller;
// that is exactly when an operator needs it.
func render(c *api.Client, st *topState, addr string) {
	var b strings.Builder
	fmt.Fprintf(&b, "pos top — %s — %s\n\n", addr, time.Now().Format("15:04:05"))

	health, err := c.Health()
	switch {
	case err != nil:
		fmt.Fprintf(&b, "health: unreachable: %v\n", err)
	case !health.Watchdog:
		b.WriteString("health: no watchdog attached\n")
	default:
		b.WriteString("probes:\n")
		for _, p := range health.Probes {
			status := "ok"
			if !p.OK {
				status = "TRIPPED"
			}
			fmt.Fprintf(&b, "  %-8s %-24s trips %-3d %s\n", status, p.Name, p.Trips, p.Detail)
		}
	}

	if snap, err := c.Metrics(); err == nil {
		byName := map[string]telemetry.MetricSnapshot{}
		for _, m := range snap.Metrics {
			byName[m.Name] = m
		}
		b.WriteString("\nmetrics:\n")
		for _, name := range topGauges {
			m, ok := byName[name]
			if !ok {
				continue
			}
			total := 0.0
			for _, v := range m.Values {
				total += v.Value
			}
			fmt.Fprintf(&b, "  %-36s %g\n", name, total)
		}
		for _, name := range topHistograms {
			m, ok := byName[name]
			if !ok || len(m.Values) == 0 {
				continue
			}
			// Aggregate across children (labelled series) by largest count.
			v := m.Values[0]
			for _, cand := range m.Values[1:] {
				if cand.Count > v.Count {
					v = cand
				}
			}
			if v.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-36s count %-8d p50 %-10.4g p90 %-10.4g p99 %.4g\n",
				name, v.Count, v.Quantiles["p50"], v.Quantiles["p90"], v.Quantiles["p99"])
		}
	} else {
		fmt.Fprintf(&b, "\nmetrics: unreachable: %v\n", err)
	}

	st.mu.Lock()
	fmt.Fprintf(&b, "\nevents (%s", st.stream)
	if st.dropped > 0 {
		fmt.Fprintf(&b, ", %d DROPPED — journal has the full stream", st.dropped)
	}
	b.WriteString("):\n")
	for _, ev := range st.tail {
		fmt.Fprintf(&b, "  %s\n", renderEvent(ev))
	}
	st.mu.Unlock()

	// Clear + home, then the frame in one write to minimize flicker.
	fmt.Print("\033[H\033[2J" + b.String())
}
