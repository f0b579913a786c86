package results

import "pos/internal/telemetry"

// Store-wide telemetry. The counters aggregate across every open store and
// experiment handle in the process — exactly what a controller scrape wants.
var (
	manifestFlushes = telemetry.Default.Counter("pos_results_manifest_flushes_total",
		"Manifest writes: one per Sync or RebuildIndex that found the manifest changed.")
	openHandles = telemetry.Default.Gauge("pos_results_open_handles",
		"Experiment handles alive in the process: held by a caller, by their store until synced, or by a store's recent ring.")
	dedupHits = telemetry.Default.Counter("pos_results_dedup_hits_total",
		"Artifact writes satisfied by linking an existing content blob.")
	dedupMisses = telemetry.Default.Counter("pos_results_dedup_misses_total",
		"Artifact writes that stored new content in the blob pool.")
	dedupBytesSaved = telemetry.Default.Counter("pos_results_dedup_saved_bytes_total",
		"Artifact bytes not rewritten thanks to content dedup.")
)
