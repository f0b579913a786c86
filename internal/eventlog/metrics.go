package eventlog

import "pos/internal/telemetry"

// Event-pipeline telemetry: publication volume, subscriber backpressure, and
// journal failures. Drops count per-subscriber ring evictions — a rising value
// with a flat published count points at one stalled consumer, not at the
// campaign. Journal errors are the only trace of an append that Publish or
// RecordUnder swallowed; what the journal did write is its segments on disk.
var (
	eventsPublished = telemetry.Default.Counter("pos_events_published_total",
		"Events published into the experiment event pipeline.")
	eventsDropped = telemetry.Default.Counter("pos_events_dropped_total",
		"Events evicted from slow subscribers' ring buffers.")
	journalErrors = telemetry.Default.Counter("pos_events_journal_errors_total",
		"Failed journal appends (events still reached live subscribers).")
)
