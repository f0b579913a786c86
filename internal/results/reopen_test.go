package results_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
	"weak"

	"pos/internal/eval"
	"pos/internal/eventlog"
	"pos/internal/publish"
	"pos/internal/results"
)

const moongenLog = `[Device: id=0] RX: 14.21 Mpps, 7276 Mbit/s (9550 Mbit/s with framing)
[Device: id=0] TX: 14.88 Mpps, 7618 Mbit/s (9999 Mbit/s with framing)
`

// A handle the collector took comes back from .posindex as the experiment it
// was: same generation, paths and metadata, so a warm eval cache entry keyed
// on that generation still hits. Everything here goes through the public API;
// the handle is pushed out of the store's recent ring the way a long-lived
// controller does it, by using other experiments.
func TestCollectedHandleReloadsFromManifest(t *testing.T) {
	at := time.Date(2020, 10, 12, 11, 20, 32, 0, time.UTC)
	s, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.CreateExperiment("user", "reload", at)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		meta := results.RunMeta{Run: run, LoopVars: map[string]string{"rate": fmt.Sprint(run)}, StartedAt: at, FinishedAt: at}
		if err := e.WriteRunMeta(meta); err != nil {
			t.Fatal(err)
		}
		if err := e.AddRunArtifact(run, "lg", "moongen.log", []byte(moongenLog)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	eval.ResetCache()
	if _, err := eval.LoadRuns(e, "lg", "moongen.log"); err != nil {
		t.Fatal(err)
	}
	gen, _ := e.Generation()
	paths, _ := e.ArtifactPaths()
	meta, _ := e.ReadRunMeta(1)
	id, old := e.ID(), weak.Make(e)
	e = nil

	for i := 0; old.Value() != nil; i++ {
		if i == 1000 {
			t.Fatal("handle still alive after 1000 other experiments were used")
		}
		if _, err := s.CreateExperiment("user", fmt.Sprintf("other%04d", i), at); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
	}

	re, err := s.OpenExperiment("user", "reload", id)
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := re.Generation(); !ok || g != gen {
		t.Errorf("generation = %d, %v, want %d", g, ok, gen)
	}
	if p, err := re.ArtifactPaths(); err != nil || !reflect.DeepEqual(p, paths) {
		t.Errorf("paths = %v, %v, want %v", p, err, paths)
	}
	if m, err := re.ReadRunMeta(1); err != nil || !reflect.DeepEqual(m, meta) {
		t.Errorf("meta = %+v, %v, want %+v", m, err, meta)
	}
	hits := eval.Stats().Hits
	if runs, err := eval.LoadRuns(re, "lg", "moongen.log"); err != nil || len(runs) != 3 {
		t.Fatalf("load = %d runs, %v", len(runs), err)
	}
	if eval.Stats().Hits != hits+1 {
		t.Error("warm eval entry missed after the handle was reloaded")
	}
}

// An experiment's event journal is written by eventlog beside the store, not
// through it, so the manifest never lists it. Reopened through a fresh store,
// such an experiment must still load its manifest rather than rebuild one
// from a tree scan: the same artifact paths as the live handle, a generation
// that does not go down (it keys the eval cache), and a publication manifest
// that lists the journal once.
func TestReopenWithJournalKeepsManifest(t *testing.T) {
	at := time.Date(2020, 10, 12, 11, 20, 32, 0, time.UTC)
	root := t.TempDir()
	s, err := results.NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.CreateExperiment("user", "journaled", at)
	if err != nil {
		t.Fatal(err)
	}
	j, err := eventlog.OpenJournal(filepath.Join(e.Dir(), eventlog.JournalDir), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(eventlog.Event{Typ: "progress", Message: "run 1/2"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		if err := e.WriteRunMeta(results.RunMeta{Run: run, StartedAt: at, FinishedAt: at}); err != nil {
			t.Fatal(err)
		}
		if err := e.AddRunArtifact(run, "lg", "moongen.log", []byte(moongenLog)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddExperimentArtifact("figures/throughput.csv", []byte("series,x,y\n")); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	gen, _ := e.Generation()
	paths, _ := e.ArtifactPaths()

	fresh, err := results.NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	re, err := fresh.OpenExperiment("user", "journaled", e.ID())
	if err != nil {
		t.Fatal(err)
	}
	if p, err := re.ArtifactPaths(); err != nil || !reflect.DeepEqual(p, paths) {
		t.Errorf("reopened paths = %v, %v, want %v", p, err, paths)
	}
	if g, ok := re.Generation(); !ok || g < gen {
		t.Errorf("reopened generation = %d, %v, want >= %d", g, ok, gen)
	}
	m, err := publish.BuildManifest(re, "user", "journaled")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, f := range m.Files {
		if seen[f] {
			t.Errorf("manifest lists %s twice", f)
		}
		seen[f] = true
	}
	if journal := eventlog.JournalDir + "/events-00000.jsonl"; !seen[journal] {
		t.Errorf("manifest lacks %s: %v", journal, m.Files)
	}

	// A file the manifest does not know makes it stale: the reopen rebuilds
	// from a scan, and the rebuilt manifest continues the generation.
	if err := os.WriteFile(filepath.Join(e.Dir(), "notes.txt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err = results.NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	if re, err = fresh.OpenExperiment("user", "journaled", e.ID()); err != nil {
		t.Fatal(err)
	}
	if g, ok := re.Generation(); !ok || g <= gen {
		t.Errorf("rebuilt generation = %d, %v, want > %d", g, ok, gen)
	}
	want := append([]string{"notes.txt"}, paths...)
	sort.Strings(want)
	if p, err := re.ArtifactPaths(); err != nil || !reflect.DeepEqual(p, want) {
		t.Errorf("rebuilt paths = %v, %v, want %v", p, err, want)
	}
}
