package queue

import "pos/internal/telemetry"

// Campaign-queue telemetry: tenant-visible queue pressure and admission
// outcomes. Submissions, requeues, completions and submit-to-admit waits are
// not counted here: each is a `queue` event in the journal, which carries the
// submit and admit times. Gauges aggregate across controllers in one process
// (tests open several; production runs one).
var (
	queueDepth = telemetry.Default.Gauge("pos_queue_depth",
		"Submissions waiting for the calendar to grant their node set.")
	starvedPasses = telemetry.Default.Counter("pos_queue_starved_passes_total",
		"Admission passes that admitted nothing while submissions were queued and no campaign held an allocation — the health watchdog's starvation signal.")
	admissionsTotal = telemetry.Default.CounterVec("pos_queue_admissions_total",
		"Admission decisions, by outcome (admitted, rejected).", "outcome")
)

func admissions(outcome string) *telemetry.Counter { return admissionsTotal.With(outcome) }
