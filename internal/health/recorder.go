package health

import (
	"encoding/json"
	"runtime"
	"sync"
	"time"

	"pos/internal/eventlog"
	"pos/internal/telemetry"
)

// Flight-record trigger labels.
const (
	TriggerWatchdog = "watchdog"
	TriggerSignal   = "sigquit"
)

// DefaultRecorderCapacity is the ring size used when the caller does not
// choose one.
const DefaultRecorderCapacity = 256

// Recorder keeps a bounded ring of the most recent events so that the
// moment something goes wrong — a watchdog trip or an operator's SIGQUIT — the last thing the system did is already in memory,
// ready to be captured together with a metrics snapshot and a goroutine
// stack dump. It is the post-mortem counterpart of the journal: small,
// always warm, and dumped in one piece.
type Recorder struct {
	reg *telemetry.Registry

	mu   sync.Mutex
	buf  []eventlog.Event // ring
	head int              // index of the oldest recorded event
	n    int
}

// NewRecorder returns a recorder keeping the last capacity events
// (DefaultRecorderCapacity when <= 0), snapshotting metrics from reg
// (telemetry.Default when nil) at capture time.
func NewRecorder(capacity int, reg *telemetry.Registry) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	if reg == nil {
		reg = telemetry.Default
	}
	return &Recorder{reg: reg, buf: make([]eventlog.Event, capacity)}
}

// Record appends ev to the ring, evicting the oldest entry when full.
func (r *Recorder) Record(ev eventlog.Event) {
	r.mu.Lock()
	if r.n == len(r.buf) {
		r.head = (r.head + 1) % len(r.buf)
		r.n--
	}
	r.buf[(r.head+r.n)%len(r.buf)] = ev
	r.n++
	r.mu.Unlock()
}

// Events returns the recorded events, oldest first.
func (r *Recorder) Events() []eventlog.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]eventlog.Event, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	return out
}

// Attach feeds every event published on p into the ring until the returned
// detach function is called. Detach waits for the feed to stop.
func (r *Recorder) Attach(p *eventlog.Pipeline) (detach func()) {
	return p.Watch(len(r.buf), r.Record)
}

// FlightRecord is one captured incident: what tripped, what the system was
// doing just before (recent events), what the metrics said, and what every
// goroutine was doing at that instant.
type FlightRecord struct {
	Trigger    string             `json:"trigger"` // watchdog | sigquit
	Probe      string             `json:"probe,omitempty"`
	Detail     string             `json:"detail,omitempty"`
	At         time.Time          `json:"at"`
	Events     []eventlog.Event   `json:"events"`
	Metrics    telemetry.Snapshot `json:"metrics"`
	Goroutines string             `json:"goroutines"`
}

// Capture assembles a flight record now: the ring's events, a registry
// snapshot, and a full goroutine stack dump.
func (r *Recorder) Capture(trigger, probe, detail string) FlightRecord {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	flightRecords.Inc()
	return FlightRecord{
		Trigger:    trigger,
		Probe:      probe,
		Detail:     detail,
		At:         time.Now(),
		Events:     r.Events(),
		Metrics:    r.reg.Snapshot(),
		Goroutines: string(buf),
	}
}

// Encode renders the record as indented JSON with a trailing newline — the
// exact bytes posctl serve dumps as flightrec-<ts>.json.
func (fr FlightRecord) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(fr, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeFlightRecord parses bytes produced by Encode.
func DecodeFlightRecord(data []byte) (FlightRecord, error) {
	var fr FlightRecord
	err := json.Unmarshal(data, &fr)
	return fr, err
}
