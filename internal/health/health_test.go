package health

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pos/internal/eventlog"
	"pos/internal/telemetry"
)

func TestStallProbeTripAndReset(t *testing.T) {
	var v atomic.Uint64
	active := true
	p := NewStallProbe("t", func() float64 { return float64(v.Load()) },
		func() bool { return active }, 100*time.Millisecond)
	now := time.Unix(1000, 0)

	if ok, _ := p.Check(now); !ok {
		t.Fatal("first check must prime, not trip")
	}
	// Value frozen within the deadline: still healthy.
	now = now.Add(50 * time.Millisecond)
	if ok, _ := p.Check(now); !ok {
		t.Fatal("tripped inside the deadline")
	}
	// Frozen past the deadline: trip.
	now = now.Add(100 * time.Millisecond)
	ok, detail := p.Check(now)
	if ok {
		t.Fatal("no trip after deadline elapsed with a frozen value")
	}
	if !strings.Contains(detail, "no progress") {
		t.Fatalf("detail = %q", detail)
	}
	// Progress resumes: healthy again, stall clock re-primed.
	v.Add(1)
	if ok, _ := p.Check(now.Add(time.Millisecond)); !ok {
		t.Fatal("advancing value must reset the probe")
	}
	// Going inactive resets the stall clock entirely.
	active = false
	now = now.Add(time.Hour)
	if ok, detail := p.Check(now); !ok || detail != "idle" {
		t.Fatalf("inactive probe: ok=%v detail=%q", ok, detail)
	}
	active = true
	if ok, _ := p.Check(now); !ok {
		t.Fatal("first active check after idle must re-prime")
	}
}

func TestGrowthProbeWindow(t *testing.T) {
	var v atomic.Uint64
	p := NewGrowthProbe("g", func() float64 { return float64(v.Load()) }, 5, time.Second)
	now := time.Unix(2000, 0)

	p.Check(now) // baseline
	v.Store(3)
	if ok, _ := p.Check(now.Add(100 * time.Millisecond)); !ok {
		t.Fatal("growth under the limit tripped")
	}
	v.Store(9) // +9 > 5 within the window
	ok, detail := p.Check(now.Add(200 * time.Millisecond))
	if ok {
		t.Fatal("no trip on growth past the limit")
	}
	if !strings.Contains(detail, "grew by 9") {
		t.Fatalf("detail = %q", detail)
	}
	// The trip reset the window: the same value is the new baseline.
	if ok, _ := p.Check(now.Add(300 * time.Millisecond)); !ok {
		t.Fatal("probe must recover after the trip reset its base")
	}
	// Slow growth across window rollovers never accumulates into a trip.
	for i := 0; i < 10; i++ {
		v.Add(2)
		now = now.Add(1100 * time.Millisecond)
		if ok, _ := p.Check(now); !ok {
			t.Fatal("window rollover leaked growth across windows")
		}
	}
}

func TestWatchdogEdgeTriggeredTrips(t *testing.T) {
	var v atomic.Uint64
	now := time.Unix(3000, 0)
	w := NewWatchdog(time.Hour) // never self-ticks; the test drives Tick
	w.SetClock(func() time.Time { return now })
	events := eventlog.NewPipeline()
	sub := events.Subscribe(64)
	defer sub.Close()
	w.SetEvents(events)

	var trips atomic.Int32
	w.Register(NewStallProbe("stall", func() float64 { return float64(v.Load()) }, nil, 100*time.Millisecond))
	w.SetOnTrip(func(ProbeState) { trips.Add(1) })

	w.Tick() // prime
	now = now.Add(time.Minute)
	w.Tick() // frozen past deadline: trip
	now = now.Add(time.Minute)
	w.Tick() // still bad: edge-triggered, no second trip
	if got := trips.Load(); got != 1 {
		t.Fatalf("trips = %d, want 1 (edge-triggered)", got)
	}
	st := w.Status()
	if len(st) != 1 || st[0].OK || st[0].Trips != 1 || st[0].LastTrip.IsZero() {
		t.Fatalf("status = %+v", st)
	}

	// Progress resumes: recovery, then a second stall trips again.
	v.Add(1)
	w.Tick()
	if st := w.Status(); !st[0].OK {
		t.Fatalf("probe did not recover: %+v", st[0])
	}
	now = now.Add(time.Minute)
	w.Tick()
	if got := trips.Load(); got != 2 {
		t.Fatalf("trips after second stall = %d, want 2", got)
	}

	// The pipeline saw a trip ERROR, a recovery INFO, and a second trip.
	var health []eventlog.Event
	for len(health) < 3 {
		ev, ok := sub.Next(t.Context())
		if !ok {
			t.Fatal("subscription closed early")
		}
		if ev.Typ == eventlog.TypeHealth {
			health = append(health, ev)
		}
	}
	if health[0].Level != "ERROR" || health[0].Attrs["probe"] != "stall" {
		t.Fatalf("trip event = %+v", health[0])
	}
	if health[1].Level != "INFO" || health[1].Attrs["state"] != "ok" {
		t.Fatalf("recovery event = %+v", health[1])
	}
}

// TestWatchdogHammer runs a fast-ticking watchdog against live goroutines —
// under -race this doubles as the concurrency check. While the progress
// counter advances the probe must never trip; once the counter freezes the
// trip must arrive.
func TestWatchdogHammer(t *testing.T) {
	var progress atomic.Uint64
	var trips atomic.Int32
	w := NewWatchdog(2 * time.Millisecond)
	w.Register(NewStallProbe("hammer", func() float64 { return float64(progress.Load()) }, nil, 150*time.Millisecond))
	tripped := make(chan struct{}, 1)
	w.SetOnTrip(func(ProbeState) {
		trips.Add(1)
		select {
		case tripped <- struct{}{}:
		default:
		}
	})
	w.Start()
	defer w.Stop()

	// Healthy phase: concurrent writers keep the signal moving.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				progress.Add(1)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	if got := trips.Load(); got != 0 {
		t.Fatalf("healthy watchdog tripped %d times", got)
	}

	// Freeze the signal: the trip must arrive within a few deadlines.
	close(stop)
	<-done
	select {
	case <-tripped:
	case <-time.After(5 * time.Second):
		t.Fatal("frozen signal never tripped the watchdog")
	}
	if got := trips.Load(); got != 1 {
		t.Fatalf("trips = %d, want exactly 1", got)
	}
}

func TestRecorderRingAndCapture(t *testing.T) {
	r := NewRecorder(4, telemetry.Default)
	for i := 0; i < 10; i++ {
		r.Record(eventlog.Event{Seq: uint64(i + 1), Message: fmt.Sprintf("ev%d", i)})
	}
	evs := r.Events()
	if len(evs) != 4 || evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("ring = %+v", evs)
	}

	fr := r.Capture(TriggerWatchdog, "stall", "no progress")
	if fr.Trigger != TriggerWatchdog || fr.Probe != "stall" || fr.At.IsZero() {
		t.Fatalf("record header = %+v", fr)
	}
	if len(fr.Events) != 4 {
		t.Fatalf("captured %d events, want 4", len(fr.Events))
	}
	if !strings.Contains(fr.Goroutines, "goroutine") {
		t.Fatal("capture carries no goroutine dump")
	}
	if len(fr.Metrics.Metrics) == 0 {
		t.Fatal("capture carries no metrics snapshot")
	}

	data, err := fr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeFlightRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Trigger != fr.Trigger || len(back.Events) != len(fr.Events) ||
		back.Goroutines != fr.Goroutines {
		t.Fatal("flight record did not round-trip")
	}
}

func TestRecorderAttach(t *testing.T) {
	p := eventlog.NewPipeline()
	r := NewRecorder(8, telemetry.Default)
	detach := r.Attach(p)
	for i := 0; i < 5; i++ {
		p.Publish(eventlog.Event{Message: fmt.Sprintf("m%d", i)})
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(r.Events()) < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("recorder saw %d of 5 published events", len(r.Events()))
		}
		time.Sleep(time.Millisecond)
	}
	detach()
	detach() // idempotent
	p.Publish(eventlog.Event{Message: "after detach"})
	time.Sleep(10 * time.Millisecond)
	if n := len(r.Events()); n != 5 {
		t.Fatalf("detached recorder kept recording: %d events", n)
	}
}
