package hosttools

import "pos/internal/telemetry"

// A barrier timeout is not counted: ErrBarrierTimeout fails the run, and the
// run's failure is journaled.
var (
	barrierWaitSeconds = telemetry.Default.Histogram("pos_hosttools_barrier_wait_seconds",
		"Time callers spend blocked in pos_sync barriers.", telemetry.DurationBuckets())
	uploadsTotal = telemetry.Default.Counter("pos_hosttools_uploads_total",
		"Result artifacts accepted from nodes via pos_upload.")
	uploadBytes = telemetry.Default.Counter("pos_hosttools_upload_bytes_total",
		"Result artifact bytes accepted from nodes.")
	uploadsRefused = telemetry.Default.Counter("pos_hosttools_uploads_refused_total",
		"Uploads rejected: closed scope, missing uploader, or upload hook veto.")
)
