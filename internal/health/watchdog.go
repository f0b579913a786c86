package health

import (
	"sync"
	"time"

	"pos/internal/eventlog"
)

// ProbeState is one probe's current standing as the watchdog sees it —
// what GET /api/v1/health serves and what the trip callback receives.
type ProbeState struct {
	Name   string    `json:"name"`
	OK     bool      `json:"ok"`
	Detail string    `json:"detail,omitempty"`
	Since  time.Time `json:"since"` // when the probe entered its current state
	Trips  uint64    `json:"trips"`
	// LastTrip is zero until the probe has tripped once.
	LastTrip time.Time `json:"last_trip"`
}

type probeEntry struct {
	probe Probe
	state ProbeState
}

// Watchdog periodically runs its registered probes and turns unhealthy
// transitions into typed eventlog events, pos_health_* metrics, and the trip
// callback. Trips are edge-triggered: a probe that stays bad fires once,
// then again only after it has recovered — a stuck campaign produces one
// flight record, not one per tick.
type Watchdog struct {
	interval time.Duration

	mu      sync.Mutex
	now     func() time.Time
	probes  []*probeEntry
	events  *eventlog.Pipeline
	onTrip  func(ProbeState)
	stop    chan struct{}
	done    chan struct{}
	tickMu  sync.Mutex // serializes Tick passes (probes keep unlocked state)
	lastRun time.Time
}

// NewWatchdog returns a stopped watchdog checking every interval once
// started (minimum 10ms; zero defaults to 5s).
func NewWatchdog(interval time.Duration) *Watchdog {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	return &Watchdog{interval: interval, now: time.Now}
}

// SetClock pins the watchdog's time source (tests drive Tick manually
// against a fake clock).
func (w *Watchdog) SetClock(now func() time.Time) {
	w.mu.Lock()
	w.now = now
	w.mu.Unlock()
}

// SetEvents attaches the pipeline that receives typed health events on
// probe trips and recoveries.
func (w *Watchdog) SetEvents(p *eventlog.Pipeline) {
	w.mu.Lock()
	w.events = p
	w.mu.Unlock()
}

// SetOnTrip installs the trip callback, invoked once per probe trip — the
// serve path uses it to dump a flight record to disk.
func (w *Watchdog) SetOnTrip(fn func(ProbeState)) {
	w.mu.Lock()
	w.onTrip = fn
	w.mu.Unlock()
}

// Register adds a probe for the watchdog's lifetime.
func (w *Watchdog) Register(p Probe) {
	w.mu.Lock()
	w.probes = append(w.probes, &probeEntry{probe: p, state: ProbeState{Name: p.Name(), OK: true, Since: w.now()}})
	w.mu.Unlock()
}

// Tick runs one check pass over all probes. Start's loop calls it on the
// interval; tests call it directly against a pinned clock. Passes are
// serialized, and callbacks/event publishes run outside the state lock.
func (w *Watchdog) Tick() {
	w.tickMu.Lock()
	defer w.tickMu.Unlock()

	w.mu.Lock()
	now := w.now()
	entries := append([]*probeEntry(nil), w.probes...)
	w.mu.Unlock()

	var trips, recoveries []ProbeState
	bad := 0
	for _, e := range entries {
		ok, detail := e.probe.Check(now)
		w.mu.Lock()
		prevOK := e.state.OK
		e.state.Detail = detail
		if ok != prevOK {
			e.state.Since = now
		}
		e.state.OK = ok
		if !ok {
			bad++
		}
		if !ok && prevOK {
			e.state.Trips++
			e.state.LastTrip = now
			trips = append(trips, e.state)
		} else if ok && !prevOK {
			recoveries = append(recoveries, e.state)
		}
		w.mu.Unlock()
	}

	w.mu.Lock()
	events := w.events
	onTrip := w.onTrip
	w.lastRun = now
	w.mu.Unlock()
	probesBad.Set(float64(bad))

	for _, st := range trips {
		tripCounter(st.Name).Inc()
		if events != nil {
			events.Publish(eventlog.Event{
				Typ: eventlog.TypeHealth, Level: "ERROR", Run: eventlog.NoRun,
				Message: "watchdog tripped: " + st.Name + ": " + st.Detail,
				Attrs:   map[string]string{"probe": st.Name, "state": "tripped"},
			})
		}
		if onTrip != nil {
			onTrip(st)
		}
	}
	for _, st := range recoveries {
		if events != nil {
			events.Publish(eventlog.Event{
				Typ: eventlog.TypeHealth, Level: "INFO", Run: eventlog.NoRun,
				Message: "watchdog probe recovered: " + st.Name,
				Attrs:   map[string]string{"probe": st.Name, "state": "ok"},
			})
		}
	}
}

// Status reports every registered probe's current state, sorted by
// registration order.
func (w *Watchdog) Status() []ProbeState {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]ProbeState, len(w.probes))
	for i, e := range w.probes {
		out[i] = e.state
	}
	return out
}

// Start begins periodic checking (idempotent while running).
func (w *Watchdog) Start() {
	w.mu.Lock()
	if w.stop != nil {
		w.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	w.stop, w.done = stop, done
	w.mu.Unlock()

	go func() {
		defer close(done)
		t := time.NewTicker(w.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				w.Tick()
			}
		}
	}()
}

// Stop halts periodic checking and waits for the check goroutine to exit.
// The watchdog can be started again afterwards.
func (w *Watchdog) Stop() {
	w.mu.Lock()
	stop, done := w.stop, w.done
	w.stop, w.done = nil, nil
	w.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
