package health

import "pos/internal/telemetry"

// Health-layer telemetry: flight-record activity, exposed at /metrics
// through the process-wide registry. Probe states and trip counts are not
// metrics: /api/v1/health serves them, and every trip is a health event.
var flightRecords = telemetry.Default.Counter("pos_health_flight_records_total",
	"Flight records captured (watchdog trips, campaign failures, SIGQUIT).")
