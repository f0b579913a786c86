package results

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStrictRunDirParsing(t *testing.T) {
	cases := []struct {
		name string
		want int
		ok   bool
	}{
		{"run_0000", 0, true},
		{"run_0042", 42, true},
		{"run_9999", 9999, true},
		{"run_10000", 10000, true}, // %04d widens past 9999
		{"run_0001.bak", 0, false},
		{"run_001", 0, false},   // too few digits
		{"run_00001", 0, false}, // non-canonical zero padding
		{"run_+0001", 0, false},
		{"run_-001", 0, false},
		{"run_", 0, false},
		{"run_abcd", 0, false},
		{"ruN_0001", 0, false},
		{"metadata.json", 0, false},
	}
	for _, c := range cases {
		n, ok := parseRunDir(c.name)
		if ok != c.ok || (ok && n != c.want) {
			t.Errorf("parseRunDir(%q) = %d, %v; want %d, %v", c.name, n, ok, c.want, c.ok)
		}
	}
}

func TestRunsIgnoresDecoyDirectories(t *testing.T) {
	_, e := newExp(t)
	for _, r := range []int{0, 1} {
		if err := e.WriteRunMeta(RunMeta{Run: r}); err != nil {
			t.Fatal(err)
		}
	}
	// Stragglers that the lax Sscanf parser used to accept.
	for _, decoy := range []string{"run_0001.bak", "run_001", "run_00002", "run_xyz"} {
		if err := os.MkdirAll(filepath.Join(e.Dir(), decoy), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// The manifest and a rebuild from the tree must agree.
	runs, err := e.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0] != 0 || runs[1] != 1 {
		t.Errorf("indexed runs = %v", runs)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	scanned, err := scanTree(e.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(scanned.runs) != 2 || scanned.runs[0] == nil || scanned.runs[1] == nil {
		t.Errorf("scanned runs = %v", scanned.runs)
	}
}

func TestUnifiedArtifactNameValidation(t *testing.T) {
	_, e := newExp(t)
	bad := []struct {
		desc string
		err  error
	}{
		{"run artifact with slash", e.AddRunArtifact(0, "n", "a/b", nil)},
		{"run artifact with backslash", e.AddRunArtifact(0, "n", `a\b`, nil)},
		{"run artifact dotdot", e.AddRunArtifact(0, "n", "..", nil)},
		{"node name with slash", e.AddRunArtifact(0, "bad/node", "a", nil)},
		{"empty run artifact", e.AddRunArtifact(0, "n", "", nil)},
		{"run artifact with temp prefix", e.AddRunArtifact(0, "n", ".tmp-x", nil)},
		{"experiment artifact traversal", e.AddExperimentArtifact("../escape", nil)},
		{"experiment artifact nested traversal", e.AddExperimentArtifact("a/../../b", nil)},
		{"experiment artifact absolute", e.AddExperimentArtifact("/etc/passwd", nil)},
		{"experiment artifact empty segment", e.AddExperimentArtifact("a//b", nil)},
		{"experiment artifact dot segment", e.AddExperimentArtifact("a/./b", nil)},
		{"experiment artifact backslash", e.AddExperimentArtifact(`a\b`, nil)},
		{"experiment artifact temp prefix", e.AddExperimentArtifact("figs/.tmp-1", nil)},
		{"empty experiment artifact", e.AddExperimentArtifact("", nil)},
	}
	for _, c := range bad {
		if c.err == nil {
			t.Errorf("%s: accepted", c.desc)
		}
	}
	// Nested experiment artifacts stay allowed.
	if err := e.AddExperimentArtifact("experiment/loadgen/setup.sh", []byte("x")); err != nil {
		t.Errorf("nested experiment artifact rejected: %v", err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	// Satellite for the formerly unused Experiment.mu: hammer one
	// experiment from concurrent meta and artifact writers (run with
	// -race in the race tier).
	_, e := newExp(t)
	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				run := w*perWorker + i
				if err := e.WriteRunMeta(RunMeta{Run: run, LoopVars: map[string]string{"w": fmt.Sprint(w)}}); err != nil {
					errs[w] = err
					return
				}
				if err := e.AddRunArtifact(run, "node", "out.log", []byte(fmt.Sprintf("w%d i%d", w, i))); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	runs, err := e.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != workers*perWorker {
		t.Errorf("runs = %d, want %d", len(runs), workers*perWorker)
	}
}

func TestManifestPersistsAndServesReopen(t *testing.T) {
	s, e := newExp(t)
	for run := 0; run < 3; run++ {
		if err := e.WriteRunMeta(RunMeta{Run: run, LoopVars: map[string]string{"rate": fmt.Sprint(run)}}); err != nil {
			t.Fatal(err)
		}
		if err := e.AddRunArtifact(run, "lg", "moongen.log", []byte("log")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddExperimentArtifact("experiment/setup.sh", []byte("s")); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(e.indexPath()); err != nil {
		t.Fatalf("manifest not flushed: %v", err)
	}

	// Reopen through a fresh store — the original would hand back the live
	// handle instead of loading the persisted manifest.
	s2, err := NewStore(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	re, err := s2.OpenExperiment("user", "default", e.ID())
	if err != nil {
		t.Fatal(err)
	}
	runs, err := re.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Errorf("reopened runs = %v", runs)
	}
	meta, err := re.ReadRunMeta(1)
	if err != nil || meta.LoopVars["rate"] != "1" {
		t.Errorf("reopened meta = %+v, %v", meta, err)
	}
	arts, err := re.RunArtifacts(2)
	if err != nil || len(arts) != 1 || arts[0] != "lg/moongen.log" {
		t.Errorf("reopened artifacts = %v, %v", arts, err)
	}
	paths, err := re.ArtifactPaths()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"experiment/setup.sh",
		"run_0000/lg/moongen.log", "run_0000/metadata.json",
		"run_0001/lg/moongen.log", "run_0001/metadata.json",
		"run_0002/lg/moongen.log", "run_0002/metadata.json",
	}
	if strings.Join(paths, ";") != strings.Join(want, ";") {
		t.Errorf("paths = %v", paths)
	}
}

func TestManifestRebuildFromScan(t *testing.T) {
	s, e := newExp(t)
	if err := e.WriteRunMeta(RunMeta{Run: 0}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRunArtifact(0, "lg", "a.log", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the manifest: a fresh store's reopen must fall back to a
	// tree scan (the original store would serve its live handle).
	if err := os.WriteFile(e.indexPath(), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := NewStore(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	re, err := s2.OpenExperiment("user", "default", e.ID())
	if err != nil {
		t.Fatal(err)
	}
	runs, err := re.Runs()
	if err != nil || len(runs) != 1 {
		t.Fatalf("runs after corrupt manifest = %v, %v", runs, err)
	}
	arts, err := re.RunArtifacts(0)
	if err != nil || len(arts) != 1 || arts[0] != "lg/a.log" {
		t.Errorf("artifacts = %v, %v", arts, err)
	}
}

func TestRebuildIndexPicksUpOutOfBandFiles(t *testing.T) {
	_, e := newExp(t)
	if err := e.WriteRunMeta(RunMeta{Run: 0}); err != nil {
		t.Fatal(err)
	}
	// Dropped in next to the tree, bypassing the store API.
	if err := os.WriteFile(filepath.Join(e.Dir(), "NOTES.txt"), []byte("n"), 0o644); err != nil {
		t.Fatal(err)
	}
	paths, err := e.ArtifactPaths()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.Join(paths, ";"), "NOTES.txt") {
		t.Fatalf("manifest saw an out-of-band file without a rebuild: %v", paths)
	}
	if err := e.RebuildIndex(); err != nil {
		t.Fatal(err)
	}
	paths, err = e.ArtifactPaths()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(paths, ";"), "NOTES.txt") {
		t.Errorf("rebuild missed the out-of-band file: %v", paths)
	}
}

func TestGenerationBumpsOnEveryWrite(t *testing.T) {
	_, e := newExp(t)
	gen0, ok := e.Generation()
	if !ok {
		t.Fatal("generation unavailable on an indexed store")
	}
	if err := e.WriteRunMeta(RunMeta{Run: 0}); err != nil {
		t.Fatal(err)
	}
	gen1, _ := e.Generation()
	if gen1 <= gen0 {
		t.Errorf("generation %d not bumped from %d by WriteRunMeta", gen1, gen0)
	}
	// A re-uploaded artifact (straggler retry, teardown refusal replay)
	// must bump it again.
	if err := e.AddRunArtifact(0, "n", "a.log", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	gen2, _ := e.Generation()
	if err := e.AddRunArtifact(0, "n", "a.log", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	gen3, _ := e.Generation()
	if gen3 <= gen2 {
		t.Errorf("generation %d not bumped from %d by artifact overwrite", gen3, gen2)
	}
}

func TestDedupHardlinksIdenticalContent(t *testing.T) {
	_, e := newExp(t)
	payload := []byte(strings.Repeat("measurement script\n", 512))
	for run := 0; run < 5; run++ {
		if err := e.AddRunArtifact(run, "lg", "setup.sh", payload); err != nil {
			t.Fatal(err)
		}
	}
	// Every copy reads back byte-identical.
	for run := 0; run < 5; run++ {
		data, err := e.ReadRunArtifact(run, "lg", "setup.sh")
		if err != nil || !bytes.Equal(data, payload) {
			t.Fatalf("run %d content mismatch: %v", run, err)
		}
	}
	// All copies share one inode with the blob.
	first, err := os.Stat(filepath.Join(e.Dir(), "run_0000", "lg", "setup.sh"))
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 5; run++ {
		fi, err := os.Stat(filepath.Join(e.Dir(), runDirName(run), "lg", "setup.sh"))
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(first, fi) {
			t.Fatalf("run %d not deduplicated", run)
		}
	}
	if nlink, ok := linkCount(first); ok && nlink != 6 { // 5 runs + 1 blob
		t.Errorf("link count = %d, want 6", nlink)
	}
}

func TestDedupOverwriteDoesNotCorruptSiblings(t *testing.T) {
	_, e := newExp(t)
	shared := []byte(strings.Repeat("shared content\n", 512))
	rewritten := []byte(strings.Repeat("rewritten\n", 512))
	if err := e.AddRunArtifact(0, "n", "a", shared); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRunArtifact(1, "n", "a", shared); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRunArtifact(0, "n", "a", rewritten); err != nil {
		t.Fatal(err)
	}
	if data, _ := e.ReadRunArtifact(0, "n", "a"); !bytes.Equal(data, rewritten) {
		t.Errorf("run 0 = %.20q...", data)
	}
	if data, _ := e.ReadRunArtifact(1, "n", "a"); !bytes.Equal(data, shared) {
		t.Errorf("run 1 = %.20q... (sibling corrupted by overwrite)", data)
	}
}

func TestBlobStatsAndGC(t *testing.T) {
	s, e := newExp(t)
	keep := []byte(strings.Repeat("keep me around\n", 512))
	if err := e.AddRunArtifact(0, "n", "keep", keep); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRunArtifact(0, "n", "drop", []byte(strings.Repeat("about to be orphaned\n", 512))); err != nil {
		t.Fatal(err)
	}
	stats, err := s.BlobStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Blobs != 2 || stats.Referenced != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	// Orphan one blob by deleting its only tree reference.
	if err := os.Remove(filepath.Join(e.Dir(), "run_0000", "n", "drop")); err != nil {
		t.Fatal(err)
	}
	removed, err := s.GCBlobs()
	if err != nil || removed != 1 {
		t.Fatalf("gc = %d, %v", removed, err)
	}
	stats, _ = s.BlobStats()
	if stats.Blobs != 1 {
		t.Errorf("blobs after gc = %d", stats.Blobs)
	}
	if data, err := e.ReadRunArtifact(0, "n", "keep"); err != nil || !bytes.Equal(data, keep) {
		t.Errorf("survivor = %.20q..., %v", data, err)
	}
}

func TestSharedStoreServesLiveHandle(t *testing.T) {
	s, e := newExp(t)
	if err := e.WriteRunMeta(RunMeta{Run: 0, LoopVars: map[string]string{"rate": "10"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRunArtifact(0, "n", "a", []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	// A reader opened through the same store must see the writer's
	// in-memory state even while the write-behind queue is still draining.
	re, err := s.OpenExperiment("user", "default", e.ID())
	if err != nil {
		t.Fatal(err)
	}
	if re != e {
		t.Fatal("same store returned a second handle for a live experiment")
	}
	runs, err := re.Runs()
	if err != nil || len(runs) != 1 {
		t.Fatalf("runs = %v, %v", runs, err)
	}
	meta, err := re.ReadRunMeta(0)
	if err != nil || meta.LoopVars["rate"] != "10" {
		t.Fatalf("meta = %+v, %v", meta, err)
	}
	// Reading the artifact drains the queue if its file has not landed.
	if data, err := re.ReadRunArtifact(0, "n", "a"); err != nil || string(data) != "tiny" {
		t.Fatalf("artifact = %q, %v", data, err)
	}
}

func TestSmallArtifactsBypassDedup(t *testing.T) {
	s, e := newExp(t)
	small := []byte("identical but tiny")
	if err := e.AddRunArtifact(0, "n", "a", small); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRunArtifact(1, "n", "a", small); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	fi0, err := os.Stat(filepath.Join(e.Dir(), "run_0000", "n", "a"))
	if err != nil {
		t.Fatal(err)
	}
	fi1, err := os.Stat(filepath.Join(e.Dir(), "run_0001", "n", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(fi0, fi1) {
		t.Error("sub-threshold artifacts were deduplicated")
	}
	if stats, _ := s.BlobStats(); stats.Blobs != 0 {
		t.Errorf("blob pool grew for sub-threshold artifacts: %+v", stats)
	}
}

func TestDurableStoreWrites(t *testing.T) {
	s, err := NewStore(t.TempDir(), Durable())
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.CreateExperiment("user", "default", when)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Sync() })
	if err := e.WriteRunMeta(RunMeta{Run: 0, LoopVars: map[string]string{"a": "1"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRunArtifact(0, "n", "a.log", []byte("fsynced")); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if data, err := e.ReadRunArtifact(0, "n", "a.log"); err != nil || string(data) != "fsynced" {
		t.Errorf("artifact = %q, %v", data, err)
	}
}

func TestTmpSweepOnOpen(t *testing.T) {
	s, e := newExp(t)
	if err := e.WriteRunMeta(RunMeta{Run: 0}); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crashed writer: orphaned temp files at several depths.
	orphans := []string{
		filepath.Join(s.Root(), ".tmp-rootcrash"),
		filepath.Join(e.Dir(), ".tmp-123"),
		filepath.Join(e.Dir(), "run_0000", ".tmp-456"),
	}
	for _, p := range orphans {
		if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// NewStore sweeps the root level; OpenExperiment sweeps the tree. A
	// crash recovery runs in a fresh process, so open via a fresh store —
	// the original store would hand back its live, registered handle.
	s2, err := NewStore(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.OpenExperiment("user", "default", e.ID()); err != nil {
		t.Fatal(err)
	}
	for _, p := range orphans {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived the sweep", p)
		}
	}
	// Real content is untouched.
	if _, err := e.ReadRunMeta(0); err != nil {
		t.Error(err)
	}
}

func TestBackpressureBoundsPendingMutations(t *testing.T) {
	_, e := newExp(t)
	// Many more mutations than the queue bound; writers must block on the
	// flusher rather than grow state unboundedly, and everything must be
	// visible after Sync.
	for i := 0; i < maxPendingMutations*2+10; i++ {
		if err := e.WriteRunMeta(RunMeta{Run: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	pending := e.pending
	e.mu.Unlock()
	if pending != 0 {
		t.Errorf("pending after Sync = %d", pending)
	}
	runs, err := e.Runs()
	if err != nil || len(runs) != maxPendingMutations*2+10 {
		t.Errorf("runs = %d, %v", len(runs), err)
	}
}

func TestPruneRemovesManifest(t *testing.T) {
	s, e := newExp(t)
	if err := e.WriteRunMeta(RunMeta{Run: 0}); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateExperiment("user", "default", when.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prune("user", "default", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(e.indexPath()); !os.IsNotExist(err) {
		t.Error("pruned experiment's manifest survived")
	}
}

func TestDotUserRejected(t *testing.T) {
	s, _ := newExp(t)
	if _, err := s.CreateExperiment(".posindex", "x", when); err == nil {
		t.Error("accepted a user colliding with store internals")
	}
	if _, err := s.CreateExperiment("u", ".hidden", when); err == nil {
		t.Error("accepted a dot experiment name")
	}
}

// A Sync that arrives while the flusher waits out its group-commit window
// must end the window, not sit through the rest of it. The deferred write
// stamps the moment the flusher starts its commit, so the disk's speed stays
// out of the measurement.
func TestSyncCutsFlushWindowShort(t *testing.T) {
	_, e := newExp(t)
	waits := make([]time.Duration, 50)
	for i := range waits {
		var committing time.Time
		stamp := func() error { committing = time.Now(); return nil }
		if _, err := e.mutateOp("probe", stamp, entry{rel: "probe", exp: true}, false); err != nil {
			t.Fatal(err)
		}
		time.Sleep(flushWindow / 10) // the flusher is in its window by now
		called := time.Now()
		if err := e.Sync(); err != nil {
			t.Fatal(err)
		}
		waits[i] = committing.Sub(called)
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	if median := waits[len(waits)/2]; median >= flushWindow/2 {
		t.Errorf("median wait from Sync to commit = %v, want < %v (window %v)", median, flushWindow/2, flushWindow)
	}
}
