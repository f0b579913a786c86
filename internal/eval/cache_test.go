package eval

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"pos/internal/results"
)

const moongenLog = `[Device: id=0] RX: 14.21 Mpps, 7276 Mbit/s (9550 Mbit/s with framing)
[Device: id=0] TX: 14.88 Mpps, 7618 Mbit/s (9999 Mbit/s with framing)
`

func cacheExp(t *testing.T) *results.Experiment {
	t.Helper()
	s, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.CreateExperiment("user", "cache", time.Date(2020, 10, 12, 11, 20, 32, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Sync() })
	return e
}

func TestWarmCacheHitsUnchangedExperiment(t *testing.T) {
	ResetCache()
	e := cacheExp(t)
	for run := 0; run < 3; run++ {
		if err := e.WriteRunMeta(results.RunMeta{Run: run, LoopVars: map[string]string{"rate": fmt.Sprint(run)}}); err != nil {
			t.Fatal(err)
		}
		if err := e.AddRunArtifact(run, "lg", "moongen.log", []byte(moongenLog)); err != nil {
			t.Fatal(err)
		}
	}
	first, err := LoadRuns(e, "lg", "moongen.log")
	if err != nil {
		t.Fatal(err)
	}
	second, err := LoadRuns(e, "lg", "moongen.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 3 || len(second) != 3 {
		t.Fatalf("loads = %d, %d runs", len(first), len(second))
	}
	if s := Stats(); s.Hits < 1 {
		t.Errorf("no cache hit on unchanged experiment: %+v", s)
	}
	// Cached results are caller-owned: mutating one load must not leak
	// into the next.
	second[0].LoopVars["rate"] = "tampered"
	third, _ := LoadRuns(e, "lg", "moongen.log")
	if third[0].LoopVars["rate"] != "0" {
		t.Error("cache returned aliased LoopVars")
	}
}

func TestWarmCacheInvalidatedByMetaRewrite(t *testing.T) {
	ResetCache()
	e := cacheExp(t)
	if err := e.WriteRunMeta(results.RunMeta{Run: 0, LoopVars: map[string]string{"rate": "1"}}); err != nil {
		t.Fatal(err)
	}
	runs, err := LoadRuns(e, "lg", "moongen.log")
	if err != nil || runs[0].LoopVars["rate"] != "1" {
		t.Fatalf("initial load = %+v, %v", runs, err)
	}
	// Rewriting metadata.json bumps the manifest generation and must
	// evict the entry.
	if err := e.WriteRunMeta(results.RunMeta{Run: 0, LoopVars: map[string]string{"rate": "2"}}); err != nil {
		t.Fatal(err)
	}
	runs, err = LoadRuns(e, "lg", "moongen.log")
	if err != nil || runs[0].LoopVars["rate"] != "2" {
		t.Errorf("post-rewrite load = %+v, %v (stale cache)", runs, err)
	}
}

func TestWarmCacheInvalidatedByArtifactReupload(t *testing.T) {
	ResetCache()
	e := cacheExp(t)
	if err := e.WriteRunMeta(results.RunMeta{Run: 0, LoopVars: map[string]string{"a": "1"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRunArtifact(0, "lg", "lat.csv", []byte("100\n200\n")); err != nil {
		t.Fatal(err)
	}
	lat, err := LoadLatency(e, "lg", "lat.csv")
	if err != nil || len(lat["a=1"]) != 2 {
		t.Fatalf("initial latency = %v, %v", lat, err)
	}
	// Warm second load.
	if _, err := LoadLatency(e, "lg", "lat.csv"); err != nil {
		t.Fatal(err)
	}
	hitsBefore := Stats().Hits
	if hitsBefore < 1 {
		t.Fatalf("no warm hit: %+v", Stats())
	}
	// A re-uploaded artifact (retry after a flaky transfer) must evict.
	if err := e.AddRunArtifact(0, "lg", "lat.csv", []byte("100\n200\n300\n")); err != nil {
		t.Fatal(err)
	}
	lat, err = LoadLatency(e, "lg", "lat.csv")
	if err != nil || len(lat["a=1"]) != 3 {
		t.Errorf("post-reupload latency = %v, %v (stale cache)", lat, err)
	}
}

// sameLatency reports whether two latency maps hold the same keys and samples.
func sameLatency(a, b map[string][]float64) bool {
	return maps.EqualFunc(a, b, func(x, y []float64) bool { return slices.Equal(x, y) })
}

// tamper appends to, writes to, inserts into and deletes from a loaded
// latency map, the way a caller that owns it may. It reports whether an
// append to one key showed through in another.
func tamper(lat map[string][]float64) (leaked bool) {
	before := map[string][]float64{}
	for k, v := range lat {
		before[k] = slices.Clone(v)
	}
	for _, v := range lat {
		_ = append(v, -2, -3)
	}
	leaked = !sameLatency(lat, before)
	for k, v := range lat {
		v[0] = -1
		lat[k] = append(v, -4)
	}
	for k := range before {
		delete(lat, k)
		break
	}
	lat["tampered"] = []float64{-5}
	return leaked
}

// A latency load, cold or warm, hands the caller maps and slices it owns:
// whatever the caller does to them, the next load is unchanged. Runs that
// repeat a combination are merged in run order.
func TestLoadLatencyCallerOwnsResult(t *testing.T) {
	ResetCache()
	e := cacheExp(t)
	samples := []string{"1\n2\n", "10\n", "3\n4\n", "20\n30\n"}
	for run, csv := range samples {
		if err := e.WriteRunMeta(results.RunMeta{Run: run, LoopVars: map[string]string{"rate": fmt.Sprint(run%2 + 1)}}); err != nil {
			t.Fatal(err)
		}
		if err := e.AddRunArtifact(run, "lg", "latency.csv", []byte(csv)); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string][]float64{"rate=1": {1, 2, 3, 4}, "rate=2": {10, 20, 30}}
	for i, load := range []string{"cold", "warm", "warm again"} {
		lat, err := LoadLatency(e, "lg", "latency.csv")
		if err != nil {
			t.Fatal(err)
		}
		if !sameLatency(lat, want) {
			t.Fatalf("%s load = %v, want %v", load, lat, want)
		}
		if hits := Stats().Hits; hits != uint64(i) {
			t.Fatalf("%s load: %d cache hits, want %d", load, hits, i)
		}
		if tamper(lat) {
			t.Errorf("%s load: an append to one key overwrote another", load)
		}
	}
}

// loadLatencyAllocBudget is 15 % above the 5 objects one warm LoadLatency
// of 60 combinations cost when the budget was set (go1.24, on top of
// 148afae): the map, its groups and one backing array for every sample.
// With a slice per key, as at 148afae, it cost 64.
const loadLatencyAllocBudget = 5.75

func TestLoadLatencyAllocations(t *testing.T) {
	ResetCache()
	e := cacheExp(t)
	csv := []byte(strings.Repeat("12345\n", 100))
	for run := 0; run < 60; run++ {
		if err := e.WriteRunMeta(results.RunMeta{Run: run, LoopVars: map[string]string{"run": fmt.Sprint(run)}}); err != nil {
			t.Fatal(err)
		}
		if err := e.AddRunArtifact(run, "lg", "latency.csv", csv); err != nil {
			t.Fatal(err)
		}
	}
	// The runs commit on the store's flusher: let it finish, so its
	// allocations are not counted as LoadLatency's.
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if lat, err := LoadLatency(e, "lg", "latency.csv"); err != nil || len(lat) != 60 {
		t.Fatalf("cold load: %d combinations, %v", len(lat), err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := LoadLatency(e, "lg", "latency.csv"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > loadLatencyAllocBudget {
		t.Errorf("warm LoadLatency = %.1f allocs, budget %.2f", allocs, loadLatencyAllocBudget)
	}
}

func TestCacheEvictsAtCapacity(t *testing.T) {
	ResetCache()
	e := cacheExp(t)
	if err := e.WriteRunMeta(results.RunMeta{Run: 0}); err != nil {
		t.Fatal(err)
	}
	// Distinct artifacts produce distinct keys; the cache must stay
	// bounded.
	for i := 0; i < maxCacheEntries+16; i++ {
		if _, err := LoadRuns(e, "lg", fmt.Sprintf("log-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := Stats(); st.Entries > maxCacheEntries {
		t.Errorf("cache grew past its cap: %+v", st)
	}
}
