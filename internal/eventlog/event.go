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
	"encoding/json"
	"fmt"
	"time"
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

// Encode renders the event as one JSONL line (trailing newline included).
func (e Event) Encode() ([]byte, error) {
	data, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("eventlog: encode: %w", err)
	}
	return append(data, '\n'), nil
}

// Decode parses one JSONL line produced by Encode.
func Decode(line []byte) (Event, error) {
	ev := Event{Run: NoRun}
	if err := json.Unmarshal(line, &ev); err != nil {
		return Event{}, fmt.Errorf("eventlog: decode: %w", err)
	}
	return ev, nil
}
