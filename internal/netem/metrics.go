package netem

import "pos/internal/telemetry"

// Pool telemetry for the scalar event path: the hit rate is
// (gets - misses) / gets. The cut-through path schedules no delivery events
// at all, so a batched run barely moves these counters — itself a useful
// signal.
var (
	deliveryPoolGets = telemetry.Default.Counter("pos_netem_delivery_pool_gets_total",
		"Link delivery events drawn from the delivery pool.")
	deliveryPoolMisses = telemetry.Default.Counter("pos_netem_delivery_pool_misses_total",
		"Link delivery events that required a fresh allocation.")
)
