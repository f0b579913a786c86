package sim

import "pos/internal/telemetry"

// Data-plane telemetry for the batched engine: event pool efficiency,
// exposed at /metrics through the process-wide registry.
var (
	eventPoolHits = telemetry.Default.Counter("pos_sim_event_pool_hits_total",
		"Scheduled events served from the engine's free list.")
	eventPoolMisses = telemetry.Default.Counter("pos_sim_event_pool_misses_total",
		"Scheduled events that required a fresh allocation.")
)
