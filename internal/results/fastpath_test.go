package results

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// encodeRef is the manifest encoder index.encode replaced: the whole index
// copied into manifestFile and marshalled by reflection. Kept as the oracle.
func encodeRef(idx *index) ([]byte, error) {
	sorted := func(set map[string]struct{}) []string {
		if len(set) == 0 {
			return nil
		}
		out := make([]string, 0, len(set))
		for k := range set {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	mf := manifestFile{
		Version:    manifestVersion,
		Generation: idx.gen,
		Experiment: sorted(idx.exp),
		Runs:       make(map[string]*manifestRun, len(idx.runs)),
	}
	for run, entry := range idx.runs {
		mr := &manifestRun{Artifacts: sorted(entry.artifacts)}
		if entry.hasMeta {
			meta := entry.meta.clone()
			mr.Meta = &meta
		}
		mf.Runs[strconv.Itoa(run)] = mr
	}
	return json.Marshal(mf)
}

// TestManifestEncodeMatchesMarshal replays seeded random mutation sequences
// and requires, after every step, the bytes json.Marshal(manifestFile) writes
// — and that a step re-encodes exactly the runs it touched.
func TestManifestEncodeMatchesMarshal(t *testing.T) {
	nasty := []string{"plain", `q"uote\`, "<&>", "line\u2028sep", "\xff\xfebad", "tab\there", "\u00e9\u2713", ""}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		idx := newIndex()
		pick := func() string { return nasty[rng.Intn(len(nasty))] }
		var buf []byte
		for step := 0; step < 120; step++ {
			touched := map[int]bool{}
			for n := rng.Intn(4); n >= 0; n-- {
				run := rng.Intn(121) // keys 0…120: "10" sorts before "2"
				switch rng.Intn(5) {
				case 0, 1:
					meta := RunMeta{
						Run:        run,
						StartedAt:  when.Add(time.Duration(rng.Int63n(1e12))),
						FinishedAt: when.Add(time.Duration(rng.Int63n(1e12))).In(time.FixedZone("", 3600*(rng.Intn(5)-2))),
						Failed:     rng.Intn(4) == 0,
					}
					if rng.Intn(5) > 0 {
						meta.LoopVars = map[string]string{}
						for k := rng.Intn(4); k > 0; k-- {
							meta.LoopVars["k"+pick()] = pick()
						}
					}
					if meta.Failed {
						meta.Error = "exit 1: " + pick()
					}
					idx.setMeta(meta)
					touched[run] = true
				case 2, 3:
					idx.addRunArtifact(run, "node"+strconv.Itoa(rng.Intn(3))+"/"+pick()+".log")
					touched[run] = true
				default:
					idx.addExperimentArtifact("experiment/" + pick())
				}
			}
			idx.gen += uint64(len(touched)) + 1
			before := idx.fragEncodes
			got, err := idx.encode(buf[:0])
			if err != nil {
				t.Fatalf("seed %d step %d: encode: %v", seed, step, err)
			}
			buf = got
			want, err := encodeRef(idx)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d step %d: manifest differs from json.Marshal:\n got %s\nwant %s", seed, step, got, want)
			}
			if n := idx.fragEncodes - before; n != len(touched) {
				t.Fatalf("seed %d step %d: %d fragments re-encoded, %d runs touched", seed, step, n, len(touched))
			}
			if back, err := decodeIndex(got); err != nil || len(back.runs) != len(idx.runs) {
				t.Fatalf("seed %d step %d: encoded manifest does not decode: %v", seed, step, err)
			}
		}
	}
	// The empty manifest, and runs that hold nothing yet.
	idx := newIndex()
	idx.run(3)
	for _, x := range []*index{newIndex(), idx} {
		got, _ := x.encode(nil)
		if want, _ := encodeRef(x); !bytes.Equal(got, want) {
			t.Errorf("manifest = %s, want %s", got, want)
		}
	}
	// A timestamp RFC 3339 cannot carry fails the encode, as it fails Marshal.
	idx.setMeta(RunMeta{Run: 3, StartedAt: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)})
	if _, err := idx.encode(nil); err == nil {
		t.Error("encode accepted a year past 9999")
	}
	if _, err := encodeRef(idx); err == nil {
		t.Error("reference accepted a year past 9999")
	}
}

// metadata.json is the manifest's encoding of the metadata, indented: the
// bytes the json.Encoder with SetIndent wrote before.
func TestMetadataFileMatchesEncoder(t *testing.T) {
	for _, meta := range []RunMeta{
		{},
		{Run: 7, LoopVars: map[string]string{"pkt_sz": "64", "pkt_rate": "10000"}, StartedAt: when, FinishedAt: when.Add(time.Second)},
		{Run: 120, LoopVars: map[string]string{}, Failed: true, Error: "exit 1: <moongen> \"died\"\n"},
		{Run: 1, LoopVars: map[string]string{"a\xff": "\u2028", "": "&"}, StartedAt: when.In(time.FixedZone("", -7*3600))},
	} {
		var got, want bytes.Buffer
		w := bufio.NewWriter(&got)
		if err := meta.writeFile(w); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(meta); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("metadata.json differs:\n got %q\nwant %q", got.Bytes(), want.Bytes())
		}
	}
}

func TestRunDirNameMatchesFmt(t *testing.T) {
	for _, run := range []int{0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 123456, -1, -10, -999, -1000} {
		if got, want := runDirName(run), fmt.Sprintf("run_%04d", run); got != want {
			t.Errorf("runDirName(%d) = %q, want %q", run, got, want)
		}
	}
	_, e := newExp(t)
	dir, path := e.runFile(42, "vriga/moongen.log")
	if want := filepath.Join(e.dir, "run_0042", "vriga"); dir != want {
		t.Errorf("dir = %q, want %q", dir, want)
	}
	if want := filepath.Join(e.dir, "run_0042", "vriga", "moongen.log"); path != want {
		t.Errorf("path = %q, want %q", path, want)
	}
	if dir, _ := e.runFile(42, "metadata.json"); dir != filepath.Join(e.dir, "run_0042") {
		t.Errorf("dir of a run-level file = %q", dir)
	}
}

// countLstats installs the write path's Lstat hook for the test.
func countLstats(t *testing.T) *[]string {
	t.Helper()
	var asked []string
	lstatHook = func(path string) { asked = append(asked, path) }
	t.Cleanup(func() { lstatHook = nil })
	return &asked
}

// A campaign into an experiment the store created never asks the disk
// whether a file exists: every directory is its own, the manifest knows.
func TestFreshExperimentIngestIssuesNoLstat(t *testing.T) {
	asked := countLstats(t)
	_, e := newExp(t)
	if err := e.AddExperimentArtifact("spans.json", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if err := e.AddExperimentArtifact("experiment/loadgen/setup.sh", []byte("true\n")); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 60; run++ {
		for _, node := range []string{"vriga", "vtartu"} {
			if err := e.AddRunArtifact(run, node, "measurement.out", []byte("out")); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.AddRunArtifact(run, "vriga", "moongen.log", bytes.Repeat([]byte("x"), dedupMinBytes)); err != nil {
			t.Fatal(err)
		}
		if err := e.WriteRunMeta(RunMeta{Run: run}); err != nil {
			t.Fatal(err)
		}
		if err := e.WriteRunResources(run, []byte("{}\n")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(*asked) != 0 {
		t.Errorf("%d Lstats on a handle-created tree, first %q", len(*asked), (*asked)[0])
	}
	paths, err := e.ArtifactPaths()
	if err != nil || len(paths) != 2+60*5 {
		t.Fatalf("paths = %d, %v", len(paths), err)
	}
	for _, rel := range paths {
		if _, err := os.Stat(filepath.Join(e.dir, rel)); err != nil {
			t.Fatalf("recorded but not on disk: %v", err)
		}
	}
}

// In a run directory that was there before the handle, the disk is still
// asked: a file placed out-of-band is overwritten synchronously, never
// queued behind the flusher.
func TestOutOfBandFileInPreexistingDirOverwrittenSynchronously(t *testing.T) {
	asked := countLstats(t)
	_, e := newExp(t)
	dir := filepath.Join(e.dir, "run_0000", "vriga")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	squatter := filepath.Join(dir, "measurement.out")
	if err := os.WriteFile(squatter, []byte("out-of-band"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRunArtifact(0, "vriga", "measurement.out", []byte("recorded")); err != nil {
		t.Fatal(err)
	}
	// No Sync: a synchronous overwrite is on disk when the call returns.
	if got, _ := os.ReadFile(squatter); string(got) != "recorded" {
		t.Errorf("file = %q right after the write, want the recorded bytes", got)
	}
	if len(*asked) != 1 || (*asked)[0] != squatter {
		t.Errorf("Lstats = %q, want exactly the squatted path", *asked)
	}
	// A new file in the same directory is still deferred — and still asked
	// about, every time: the directory is not the handle's.
	if err := e.AddRunArtifact(0, "vriga", "other.out", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if len(*asked) != 2 {
		t.Errorf("Lstats = %d after a second write into the foreign directory, want 2", len(*asked))
	}
	if got, err := e.ReadRunArtifact(0, "vriga", "other.out"); err != nil || string(got) != "new" {
		t.Errorf("other.out = %q, %v", got, err)
	}
}

// In a directory the handle created, rewriting a flushed artifact is
// synchronous on the manifest's word alone, and a reader never sees the old
// bytes once the rewrite has returned.
func TestRewriteAfterSyncIsSynchronous(t *testing.T) {
	asked := countLstats(t)
	_, e := newExp(t)
	if err := e.AddRunArtifact(0, "vriga", "measurement.out", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteRunMeta(RunMeta{Run: 0}); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		want := fmt.Sprintf("rewrite %d", i)
		if err := e.AddRunArtifact(0, "vriga", "measurement.out", []byte(want)); err != nil {
			t.Fatal(err)
		}
		e.mu.Lock()
		queued := len(e.ops)
		e.mu.Unlock()
		if queued != 0 {
			t.Fatalf("rewrite %d of a flushed file was queued", i)
		}
		if got, err := e.ReadRunArtifact(0, "vriga", "measurement.out"); err != nil || string(got) != want {
			t.Fatalf("read after rewrite %d = %q, %v", i, got, err)
		}
	}
	if err := e.WriteRunMeta(RunMeta{Run: 0, Failed: true, Error: "second"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(e.dir, "run_0000", "metadata.json"))
	if err != nil || !strings.Contains(string(data), "second") {
		t.Errorf("metadata.json right after its rewrite = %q, %v", data, err)
	}
	if len(*asked) != 0 {
		t.Errorf("Lstats = %q in a handle-created directory", *asked)
	}
}

// Re-queueing a path whose write is still queued replaces the queued write:
// the last one wins, and only one write of the path reaches the disk.
func TestRequeueStillQueuedPathLastWriteWins(t *testing.T) {
	_, e := newExp(t)
	// Hold the flusher in its first drain so the writes below stay queued.
	release := make(chan struct{})
	if _, err := e.mutateOp("gate", func() error { <-release; return nil }, entry{rel: "gate", exp: true}, false); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	e.cutWindowLocked()
	e.mu.Unlock()
	for e.drainingPaths() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	for i := 0; i < 5; i++ {
		if err := e.AddRunArtifact(0, "vriga", "measurement.out", []byte(fmt.Sprintf("write %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	queued := len(e.ops)
	e.mu.Unlock()
	if queued != 1 {
		t.Errorf("%d ops queued for one path, want 1", queued)
	}
	close(release)
	if got, err := e.ReadRunArtifact(0, "vriga", "measurement.out"); err != nil || string(got) != "write 4" {
		t.Errorf("artifact = %q, %v, want the last write", got, err)
	}
}

func (e *Experiment) drainingPaths() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.draining)
}

// A rewrite that arrives while the flusher is writing the path's earlier
// bytes must not be written synchronously beside it — the flusher's rename
// could land second and leave the old bytes. It queues behind the drain.
func TestRewriteDuringDrainStaysOrdered(t *testing.T) {
	_, e := newExp(t)
	_, path := e.runFile(0, "vriga/measurement.out")
	if _, err := e.ensureDir(filepath.Dir(path)); err != nil {
		t.Fatal(err)
	}
	en := entry{run: 0, rel: "vriga/measurement.out"}
	started, release := make(chan struct{}), make(chan struct{})
	slow := func() error {
		close(started)
		<-release
		return e.store.writeFileAtomic(path, []byte("old"))
	}
	if queued, err := e.mutateOp(path, slow, en, true); err != nil || !queued {
		t.Fatalf("queued = %v, %v", queued, err)
	}
	e.mu.Lock()
	e.cutWindowLocked()
	e.mu.Unlock()
	<-started
	if err := e.AddRunArtifact(0, "vriga", "measurement.out", []byte("new")); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	queued := len(e.ops)
	e.mu.Unlock()
	if queued != 1 {
		t.Fatalf("rewrite during the drain: %d ops queued, want 1", queued)
	}
	close(release)
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Errorf("file = %q after the drain, want the rewrite", got)
	}
}

// The store keeps every experiment handle for the life of the process, so a
// handle at rest must hold no encoded manifest bytes.
func TestIdleFlusherHoldsNoFragments(t *testing.T) {
	_, e := newExp(t)
	for run := 0; run < 30; run++ {
		if err := e.AddRunArtifact(run, "vriga", "measurement.out", []byte("out")); err != nil {
			t.Fatal(err)
		}
		if err := e.WriteRunMeta(RunMeta{Run: run}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddExperimentArtifact("experiment/topology.json", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.flushing || e.draining != nil || e.opIdx != nil {
		t.Fatalf("flusher not idle after Sync: flushing=%v draining=%v opIdx=%v", e.flushing, e.draining, e.opIdx)
	}
	if e.idx.expFrag != nil {
		t.Error("experiment_artifacts fragment held at rest")
	}
	for run, entry := range e.idx.runs {
		if entry.frag != nil {
			t.Errorf("run %d holds a %d-byte fragment at rest", run, len(entry.frag))
		}
	}
	// And what the flusher wrote is what the reference encoder writes.
	data, err := os.ReadFile(e.indexPath())
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := encodeRef(e.idx); !bytes.Equal(data, want) {
		t.Errorf("manifest on disk differs from json.Marshal:\n got %s\nwant %s", data, want)
	}
}

// Temp files are named from a counter under the reserved prefix: a name
// already taken (another process, a crashed writer) is skipped, and whatever
// is left behind is what sweepTmp looks for.
func TestCreateTmpSkipsTakenNames(t *testing.T) {
	dir := t.TempDir()
	next := tmpSeq.Load() + 1
	for i := uint64(0); i < 3; i++ {
		squat := filepath.Join(dir, tmpPrefix+strconv.FormatUint(next+i, 10))
		if err := os.WriteFile(squat, []byte("orphan"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	f, err := createTmp(dir)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if !strings.HasPrefix(filepath.Base(f.Name()), tmpPrefix) {
		t.Errorf("temp file %q lacks the reserved prefix", f.Name())
	}
	if info, err := os.Stat(f.Name()); err != nil || info.Size() != 0 || info.Mode().Perm() != 0o600 {
		t.Errorf("temp file: %v, %v — want a new, empty, 0600 file", info, err)
	}
	sweepTmp(dir, false)
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("%d entries survive the sweep", len(left))
	}
	if _, err := createTmp(filepath.Join(dir, "missing")); err == nil {
		t.Error("createTmp in a missing directory succeeded")
	}
}
