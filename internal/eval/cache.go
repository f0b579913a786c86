package eval

import (
	"sync"

	"pos/internal/results"
	"pos/internal/telemetry"
)

// Warm evaluation cache. Interactive evaluation (plot iteration, posctl
// eval re-runs, the publish checker) loads the same experiment repeatedly;
// parsing 60 MoonGen logs per call dominates. Loaded-and-parsed results are
// cached per (experiment dir, node, artifact, kind) and validated against
// the store's manifest generation: any write through the results API bumps
// the generation, so a rewritten metadata.json or a re-uploaded artifact
// evicts the entry on the next load. An experiment whose manifest cannot be
// loaded or rebuilt has no generation and bypasses the cache entirely.
//
// Cached RunData shares Report pointers — reports are read-only by
// convention throughout this package — but slices and LoopVars maps are
// copied on the way out so callers can reorder and annotate freely.

const maxCacheEntries = 64

type cacheKey struct {
	dir      string
	node     string
	artifact string
	kind     string // "runs" or "latency"
}

type cacheEntry struct {
	gen     uint64
	runs    []RunData
	latency map[string][]float64
	lastUse uint64
}

var cache = struct {
	sync.Mutex
	entries map[cacheKey]*cacheEntry
	clock   uint64
	hits    uint64
	misses  uint64
}{entries: make(map[cacheKey]*cacheEntry)}

// Scrape-visible mirrors of the cache counters above (the struct counters
// stay authoritative for Stats and are resettable; telemetry counters are
// cumulative for the life of the process).
var (
	cacheHits = telemetry.Default.Counter("pos_eval_cache_hits_total",
		"Warm evaluation cache lookups served from memory.")
	cacheMisses = telemetry.Default.Counter("pos_eval_cache_misses_total",
		"Warm evaluation cache lookups that fell through to a cold parse.")
)

// cacheLookup returns the entry for key at generation gen, or nil.
func cacheLookup(key cacheKey, gen uint64) *cacheEntry {
	cache.Lock()
	defer cache.Unlock()
	e := cache.entries[key]
	if e == nil || e.gen != gen {
		if e != nil { // stale: the experiment was written since
			delete(cache.entries, key)
		}
		cache.misses++
		cacheMisses.Inc()
		return nil
	}
	cache.clock++
	e.lastUse = cache.clock
	cache.hits++
	cacheHits.Inc()
	return e
}

// cacheStore inserts an entry, evicting the least recently used one when
// the cache is full.
func cacheStore(key cacheKey, e *cacheEntry) {
	cache.Lock()
	defer cache.Unlock()
	cache.clock++
	e.lastUse = cache.clock
	if _, ok := cache.entries[key]; !ok && len(cache.entries) >= maxCacheEntries {
		var oldestKey cacheKey
		var oldest uint64
		first := true
		for k, v := range cache.entries {
			if first || v.lastUse < oldest {
				oldestKey, oldest, first = k, v.lastUse, false
			}
		}
		delete(cache.entries, oldestKey)
	}
	cache.entries[key] = e
}

// cacheGeneration returns the experiment's manifest generation when the
// experiment is cacheable.
func cacheGeneration(exp *results.Experiment) (uint64, bool) {
	return exp.Generation()
}

// copyRuns returns a caller-owned copy of cached run data. Report pointers
// are shared (read-only); the slice and the LoopVars maps are fresh.
func copyRuns(runs []RunData) []RunData {
	out := make([]RunData, len(runs))
	copy(out, runs)
	for i := range out {
		if out[i].LoopVars != nil {
			vars := make(map[string]string, len(out[i].LoopVars))
			for k, v := range out[i].LoopVars {
				vars[k] = v
			}
			out[i].LoopVars = vars
		}
	}
	return out
}

// copyLatency returns a caller-owned copy of a cached latency map.
func copyLatency(lat map[string][]float64) map[string][]float64 {
	out := make(map[string][]float64, len(lat))
	for k, v := range lat {
		out[k] = append([]float64(nil), v...)
	}
	return out
}

// CacheStats reports the warm cache's hit/miss counters and current size.
type CacheStats struct {
	Entries int
	Hits    uint64
	Misses  uint64
}

// Stats snapshots the warm cache counters.
func Stats() CacheStats {
	cache.Lock()
	defer cache.Unlock()
	return CacheStats{Entries: len(cache.entries), Hits: cache.hits, Misses: cache.misses}
}

// ResetCache drops every cached entry and zeroes the counters. Benchmarks
// use it to measure cold loads; production code never needs it.
func ResetCache() {
	cache.Lock()
	defer cache.Unlock()
	cache.entries = make(map[cacheKey]*cacheEntry)
	cache.clock, cache.hits, cache.misses = 0, 0, 0
}
