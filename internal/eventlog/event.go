// Package eventlog is the live observability pipeline: typed experiment
// events with monotonic sequence numbers, an append-only JSONL journal per
// experiment (size-rotated, crash-safe replay), and an in-process broker
// whose subscribers each own a bounded ring buffer — a slow or stalled
// consumer drops events and counts them, it never stalls the publisher.
//
// The paper's workflow (Fig. 2) runs long unattended sweeps; MACI's lesson
// (PAPERS.md) is that such campaigns are only operable when their progress is
// observable live. This package is the run's one execution record: the
// runner and campaign scheduler publish here, every observer (a console
// printer, the api's Server-Sent Events, the flight recorder) subscribes, and
// the journal under the experiment's events/ directory makes the stream
// replayable after the fact with the exact sequence a live observer saw.
package eventlog

import (
	"fmt"
	"strconv"
	"time"

	"pos/internal/jsonenc"
)

// Type classifies an event.
type Type string

const (
	// TypeProgress marks a workflow step: boot, setup, a measurement run
	// starting or failing, a retry or quarantine decision.
	TypeProgress Type = "progress"
	// TypeLog is an informational record (the scheduler's campaign notes).
	TypeLog Type = "log"
	// TypeExec carries captured host command output (stdout+stderr) from a
	// setup or measurement script.
	TypeExec Type = "exec"
	// TypeHeartbeat is a replica liveness probe.
	TypeHeartbeat Type = "heartbeat"
	// TypeQueue is a campaign-queue lifecycle transition (submitted,
	// admitted, done, failed, cancelled) published by the controller's
	// admission scheduler; Attrs carry campaign id, user, and state.
	TypeQueue Type = "queue"
	// TypeHealth is a watchdog verdict: a probe tripped or recovered.
	// Attrs carry the probe name and new state.
	TypeHealth Type = "health"
	// TypeDropped is synthesized per subscriber — never published or
	// journaled — when its ring buffer overflowed: Attrs["dropped"] is how
	// many events the consumer lost since it was last told. Seq is zero, so
	// it must not advance a resume cursor.
	TypeDropped Type = "events.dropped"
)

// NoRun is the Run value of events that are not attached to a measurement
// run (setup-phase events, logs, heartbeats).
const NoRun = -1

// Event is one entry of the experiment event stream. Seq is assigned by the
// pipeline at publication and is strictly monotonic within one pipeline —
// it doubles as the SSE event id, so a consumer can resume a broken stream
// exactly where it left off.
type Event struct {
	Seq uint64    `json:"seq"`
	At  time.Time `json:"at"`
	Typ Type      `json:"type"`
	// Level is the severity of log events ("INFO", "WARN", ...).
	Level string `json:"level,omitempty"`
	// Replica names the executing replica testbed ("" outside campaigns).
	Replica string `json:"replica,omitempty"`
	// Node names the physical host for per-host events.
	Node string `json:"node,omitempty"`
	// Phase is the workflow phase (core.PhaseSetup, ...) when known.
	Phase string `json:"phase,omitempty"`
	// Run is the measurement run index, or NoRun (-1) when the event is not
	// attached to a run.
	Run       int `json:"run"`
	TotalRuns int `json:"total_runs,omitempty"`
	// Attempt is the dispatch attempt for retry-aware campaign events.
	Attempt int    `json:"attempt,omitempty"`
	Message string `json:"message,omitempty"`
	Error   string `json:"error,omitempty"`
	// Attrs carries structured key/value context (exec sizes, queue state).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// AppendJSON appends the event as one JSON object, byte for byte what
// encoding/json.Marshal writes for it: a journal line without its newline.
// Like Marshal it refuses a time that RFC 3339 cannot carry.
func (e *Event) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, `,"at":`...)
	dst, err := jsonenc.AppendTime(dst, e.At)
	if err != nil {
		return dst, fmt.Errorf("eventlog: encode: %w", err)
	}
	dst = append(dst, `,"type":`...)
	dst = jsonenc.AppendString(dst, string(e.Typ))
	dst = jsonenc.AppendOmitEmpty(dst, `,"level":`, e.Level)
	dst = jsonenc.AppendOmitEmpty(dst, `,"replica":`, e.Replica)
	dst = jsonenc.AppendOmitEmpty(dst, `,"node":`, e.Node)
	dst = jsonenc.AppendOmitEmpty(dst, `,"phase":`, e.Phase)
	dst = append(dst, `,"run":`...)
	dst = strconv.AppendInt(dst, int64(e.Run), 10)
	dst = jsonenc.AppendIntOmitEmpty(dst, `,"total_runs":`, int64(e.TotalRuns))
	dst = jsonenc.AppendIntOmitEmpty(dst, `,"attempt":`, int64(e.Attempt))
	dst = jsonenc.AppendOmitEmpty(dst, `,"message":`, e.Message)
	dst = jsonenc.AppendOmitEmpty(dst, `,"error":`, e.Error)
	if len(e.Attrs) > 0 {
		dst = append(dst, `,"attrs":`...)
		dst = jsonenc.AppendStringMap(dst, e.Attrs)
	}
	return append(dst, '}'), nil
}

// Decode parses one journal line, as AppendJSON writes it. It accepts a strict
// subset of what encoding/json accepts, and decodes that to the same Event:
// keys spelt as AppendJSON spells them, each at most once, none null but
// attrs. An absent run is NoRun.
func Decode(line []byte) (Event, error) {
	return decode(line, nil)
}

// decode is Decode with its strings interned in strs (jsonenc.Decoder.Intern)
// unless that is nil.
func decode(line []byte, strs map[string]string) (Event, error) {
	ev := Event{Run: NoRun}
	d := jsonenc.NewDecoder(line)
	d.Intern(strs)
	for d.Next() {
		switch string(d.Key()) {
		case "seq":
			ev.Seq = d.ReadUint()
		case "at":
			ev.At = d.ReadTime()
		case "type":
			ev.Typ = Type(d.ReadString())
		case "level":
			ev.Level = d.ReadString()
		case "replica":
			ev.Replica = d.ReadString()
		case "node":
			ev.Node = d.ReadString()
		case "phase":
			ev.Phase = d.ReadString()
		case "run":
			ev.Run = int(d.ReadInt())
		case "total_runs":
			ev.TotalRuns = int(d.ReadInt())
		case "attempt":
			ev.Attempt = int(d.ReadInt())
		case "message":
			ev.Message = d.ReadString()
		case "error":
			ev.Error = d.ReadString()
		case "attrs":
			if !d.Null() {
				ev.Attrs = d.ReadStringMap()
			}
		default:
			d.Unknown()
		}
	}
	if err := d.Err(); err != nil {
		return Event{}, fmt.Errorf("eventlog: decode: %w", err)
	}
	return ev, nil
}
