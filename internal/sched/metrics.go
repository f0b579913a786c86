package sched

import "pos/internal/telemetry"

// Campaign scheduler telemetry: queue pressure, concurrency, and retries.
// Quarantines and replica liveness are sched and heartbeat events, not
// metrics. Gauges aggregate across concurrent campaigns in one process.
var (
	queueDepth = telemetry.Default.Gauge("pos_sched_queue_depth",
		"Dispatches waiting in campaign work queues.")
	inflightRuns = telemetry.Default.Gauge("pos_sched_inflight_runs",
		"Measurement runs currently executing across replicas.")
	retriesTotal = telemetry.Default.Counter("pos_sched_retries_total",
		"Failed dispatches re-enqueued for another attempt.")
	dispatchesTotal = telemetry.Default.CounterVec("pos_sched_dispatches_total",
		"Work-item dispatches, by outcome.", "outcome")
	dispatchesOK        = dispatchesTotal.With("ok")
	dispatchesFailed    = dispatchesTotal.With("failed")
	dispatchesCancelled = dispatchesTotal.With("cancelled")
)
