package results_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"weak"

	"pos/internal/eval"
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
