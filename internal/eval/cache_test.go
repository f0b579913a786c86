package eval

import (
	"fmt"
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
