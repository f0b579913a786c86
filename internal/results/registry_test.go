package results

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pos/internal/telemetry"
)

// registered is the number of keys in the store's handle registry.
func (s *Store) registered() int {
	s.handles.mu.Lock()
	defer s.handles.mu.Unlock()
	return len(s.handles.live)
}

// unpinRecent empties the recent ring, as recentHandles later opens would.
func (s *Store) unpinRecent() {
	s.handles.mu.Lock()
	defer s.handles.mu.Unlock()
	s.handles.recent = [recentHandles]*Experiment{}
}

// collectUntil runs the collector until done reports true: cleanups run on
// their own goroutine some time after the cycle that queued them.
func collectUntil(t *testing.T, what string, done func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if done() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 10 s of collections: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// recordCampaign records an experiment of the given number of runs (metadata
// and one small artifact each) under user/name and syncs it; seq sets it apart
// from the others of that name.
func recordCampaign(t *testing.T, s *Store, name string, seq, runs int) *Experiment {
	t.Helper()
	e, err := s.CreateExperiment("user", name, when.Add(time.Duration(seq)*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < runs; run++ {
		vars := map[string]string{"pkt_sz": "64", "pkt_rate": fmt.Sprint(10000 * (run + 1))}
		err := e.WriteRunMeta(RunMeta{Run: run, LoopVars: vars, StartedAt: when, FinishedAt: when})
		if err == nil {
			err = e.AddRunArtifact(run, "loadgen", "moongen.log", []byte("[Device: id=0] RX: 0.01 Mpps"))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	return e
}

// memDir is a store root on /dev/shm where there is one, as bench/ has it: a
// test that records thousands of campaigns to count bytes of heap should not
// spend its time in the host's disk journal.
func memDir(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("/dev/shm", "pos-results-")
	if err != nil {
		return t.TempDir()
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

// The cleanup of a handle must not reach its store strongly: the store's
// recent ring points at handles, so it would make every handle reachable from
// its own cleanup and a dropped store, manifests and all, immortal.
func TestDroppedStoreIsCollected(t *testing.T) {
	var freed atomic.Bool
	func() {
		s, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		recordCampaign(t, s, "dropped", 0, 60)
		runtime.AddCleanup(s, func(*atomic.Bool) { freed.Store(true) }, &freed)
	}()
	collectUntil(t, "the dropped store is still reachable", freed.Load)
}

// A store's memory follows the handles in use, not the experiments it has
// recorded: 2 000 eight-run campaigns leave the held handles and the recent
// ring registered, and under 1 KiB of heap each (the strong registry this
// replaced kept about 10 KiB of manifest, paths and directory memo apiece).
func TestStoreMemoryBounded(t *testing.T) {
	const campaigns, bound = 2000, 1 << 10
	s, err := NewStore(memDir(t))
	if err != nil {
		t.Fatal(err)
	}
	held := []*Experiment{recordCampaign(t, s, "held", 0, 8), recordCampaign(t, s, "held", 1, 8)}
	for i := 0; i < 2*recentHandles; i++ { // fill the ring before the baseline
		recordCampaign(t, s, "warmup", i, 8)
	}
	limit := recentHandles + len(held)
	settled := func() bool { return s.registered() <= limit }
	collectUntil(t, "warm-up handles still registered", settled)
	before := telemetry.ReadRuntimeStats().HeapBytes

	for i := 0; i < campaigns; i++ {
		recordCampaign(t, s, "campaign", i, 8)
	}
	collectUntil(t, "more keys registered than the ring and the held handles", settled)
	after := telemetry.ReadRuntimeStats().HeapBytes
	grown := int64(after) - int64(before)
	t.Logf("heap grew %d B over %d campaigns, %d registered", grown, campaigns, s.registered())
	if grown > campaigns*bound {
		t.Errorf("heap grew %d B over %d campaigns (%d B each), want <= %d B each",
			grown, campaigns, grown/campaigns, bound)
	}
	for _, e := range held {
		if re, err := s.OpenExperiment("user", e.name, e.ID()); err != nil || re != e {
			t.Errorf("held handle %s reopened as %p, %v, want %p", e.name, re, err, e)
		}
	}
}

// A handle someone holds is never collected, ring or no ring, so there is
// never a second writer of its manifest.
func TestHeldHandleSurvivesCollection(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := recordCampaign(t, s, "held", 0, 2)
	other := recordCampaign(t, s, "dropped", 0, 2).ID()
	s.unpinRecent()
	collectUntil(t, "the dropped handle is still registered", func() bool { return s.registered() == 1 })
	re, err := s.OpenExperiment("user", "held", e.ID())
	if err != nil || re != e {
		t.Fatalf("reopen = %p, %v, want the held handle %p", re, err, e)
	}
	// The collected one comes back as a new handle with the manifest it wrote.
	back, err := s.OpenExperiment("user", "dropped", other)
	if err != nil {
		t.Fatal(err)
	}
	if runs, err := back.Runs(); err != nil || len(runs) != 2 {
		t.Errorf("reopened runs = %v, %v", runs, err)
	}
	runtime.KeepAlive(e)
}

// Openers racing each other and the collector all get one handle: whenever
// several are held at once they are the same pointer.
func TestConcurrentOpenWhileCollecting(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := recordCampaign(t, s, "shared", 0, 2).ID()

	stop := make(chan struct{})
	var collector sync.WaitGroup
	collector.Add(1)
	go func() {
		defer collector.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	const openers, rounds = 8, 50
	round := func(n int) {
		var got [openers]*Experiment
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e, err := s.OpenExperiment("user", "shared", id)
				if err != nil {
					t.Error(err)
				}
				got[i] = e
			}()
		}
		wg.Wait()
		for i := range got {
			if got[i] != got[0] {
				t.Fatalf("round %d: opener %d holds %p, opener 0 holds %p", n, i, got[i], got[0])
			}
		}
		if runs, err := got[0].Runs(); err != nil || len(runs) != 2 {
			t.Fatalf("round %d: runs = %v, %v", n, runs, err)
		}
	}
	for n := 0; n < rounds; n++ {
		// Even rounds race to register a new handle, odd ones race the
		// collector for the one the round before left behind.
		s.unpinRecent()
		if n%2 == 0 {
			collectUntil(t, "the last round's handle is still registered", func() bool { return s.registered() == 0 })
		}
		round(n)
	}
	close(stop)
	collector.Wait()
}

// A handle dropped before Sync stays registered: its store holds it while it
// has runs staged or a manifest not yet written, so a reopen gets the handle,
// not the older manifest on disk. The last write here adds an experiment
// artifact under a top-level directory that manifest lists already, which the
// one-readdir staleness probe cannot tell apart. Once synced, the handle is
// the collector's again, and a reopen through a new store reads the same.
func TestUnsyncedHandleSurvivesDrop(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, paths, gen := func() (string, []string, uint64) {
		e, err := s.CreateExperiment("user", "dropped", when)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AddExperimentArtifact("experiment/setup.sh", []byte("true\n")); err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			if run == 2 { // the manifest on disk lists runs 0 and 1
				if err := e.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.AddRunArtifact(run, "lg", "a.out", []byte("out")); err != nil {
				t.Fatal(err)
			}
			if run < 2 {
				if err := e.WriteRunMeta(RunMeta{Run: run}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.AddExperimentArtifact("experiment/vars.yml", []byte("a: 1\n")); err != nil {
			t.Fatal(err)
		}
		paths, _ := e.ArtifactPaths()
		gen, _ := e.Generation()
		return e.ID(), paths, gen
	}()
	s.unpinRecent()
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	reopen := func(s *Store, what string) *Experiment {
		t.Helper()
		e, err := s.OpenExperiment("user", "dropped", id)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := e.ArtifactPaths()
		if g, _ := e.Generation(); g != gen || !slices.Equal(got, paths) {
			t.Errorf("%s: generation %d, paths %q; want %d, %q", what, g, got, gen, paths)
		}
		return e
	}
	if err := reopen(s, "reopened unsynced").Sync(); err != nil {
		t.Fatal(err)
	}
	s.unpinRecent()
	collectUntil(t, "the synced handle is still registered", func() bool { return s.registered() == 0 })
	fresh, err := NewStore(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	reopen(fresh, "reopened from disk")
}
