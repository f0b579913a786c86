package publish

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"pos/internal/compare"
	"pos/internal/eventlog"
	"pos/internal/results"
)

// sharedCapture is above the store's 4 KiB dedup floor: the same bytes
// under several runs are one inode.
var sharedCapture = bytes.Repeat([]byte("0123456789abcdef"), 400)

func sampleExperiment(t *testing.T) *results.Experiment {
	t.Helper()
	store, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exp, err := store.CreateExperiment("user", "linux-router", time.Date(2020, 10, 12, 11, 20, 32, 230471000, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { exp.Sync() })
	if err := exp.AddExperimentArtifact("experiment/measurement.sh", []byte("moongen --rate $pkt_rate")); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		if err := exp.WriteRunMeta(results.RunMeta{Run: run, Failed: run == 2}); err != nil {
			t.Fatal(err)
		}
		if err := exp.AddRunArtifact(run, "loadgen", "moongen.log", []byte("log data")); err != nil {
			t.Fatal(err)
		}
		if err := exp.AddRunArtifact(run, "dut", "capture.out", sharedCapture); err != nil {
			t.Fatal(err)
		}
	}
	if err := exp.AddExperimentArtifact("figures/throughput.svg", []byte("<svg/>")); err != nil {
		t.Fatal(err)
	}
	return exp
}

func TestBuildManifest(t *testing.T) {
	exp := sampleExperiment(t)
	m, err := BuildManifest(exp, "user", "linux-router")
	if err != nil {
		t.Fatal(err)
	}
	if m.Runs != 3 || m.FailedRuns != 1 {
		t.Errorf("manifest = %+v", m)
	}
	if m.ID != exp.ID() {
		t.Errorf("id = %s", m.ID)
	}
	// All artifacts present and sorted.
	wantSome := []string{
		"experiment/measurement.sh",
		"figures/throughput.svg",
		"run_0000/loadgen/moongen.log",
		"run_0000/metadata.json",
	}
	joined := strings.Join(m.Files, "\n")
	for _, w := range wantSome {
		if !strings.Contains(joined, w) {
			t.Errorf("manifest missing %s:\n%s", w, joined)
		}
	}
	for i := 1; i < len(m.Files); i++ {
		if m.Files[i] < m.Files[i-1] {
			t.Error("files not sorted")
		}
	}
}

// TestManifestCarriesEventJournal: the execution record under events/ is
// published with the results it explains.
func TestManifestCarriesEventJournal(t *testing.T) {
	exp := sampleExperiment(t)
	p := eventlog.NewPipeline()
	stop := p.RecordUnder(exp.Dir())
	p.Publish(eventlog.Event{Typ: eventlog.TypeProgress, Phase: "setup", Run: eventlog.NoRun, Message: "booting hosts"})
	stop()
	m, err := BuildManifest(exp, "user", "linux-router")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(m.Files, "events/events-00000.jsonl") || !slices.IsSorted(m.Files) {
		t.Errorf("manifest files = %q, want the sorted list with the journal segment", m.Files)
	}
}

// readArchive reads a release with the stdlib readers alone and returns the
// entry names in order, every entry's content with hardlink entries resolved
// to their target's, and the number of hardlink entries.
func readArchive(t *testing.T, archive []byte) (names []string, contents map[string][]byte, links int) {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(gz)
	contents = map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, hdr.Name)
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		if hdr.Typeflag == tar.TypeLink {
			links++
			target, ok := contents[hdr.Linkname]
			if !ok || len(data) != 0 {
				t.Fatalf("link %s -> %s: target not archived before it, or link carries %d bytes", hdr.Name, hdr.Linkname, len(data))
			}
			data = target
		}
		contents[hdr.Name] = data
	}
	return names, contents, links
}

func TestArchiveRoundTrip(t *testing.T) {
	exp := sampleExperiment(t)
	var buf bytes.Buffer
	m, err := Archive(exp, "linux-router", &buf)
	if err != nil {
		t.Fatal(err)
	}
	names, contents, links := readArchive(t, buf.Bytes())
	prefix := "linux-router-" + exp.ID() + "/"
	var want []string
	for _, f := range m.Files {
		want = append(want, prefix+f)
	}
	if !slices.Equal(names, want) {
		t.Errorf("archive entries = %q, manifest = %q", names, want)
	}
	for _, f := range m.Files {
		onDisk, err := os.ReadFile(filepath.Join(exp.Dir(), filepath.FromSlash(f)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(contents[prefix+f], onDisk) {
			t.Errorf("%s: archived %d bytes differ from the store's %d", f, len(contents[prefix+f]), len(onDisk))
		}
	}
	// capture.out is one inode under three runs: bytes once, then links.
	if links != 2 {
		t.Errorf("hardlink entries = %d, want 2", links)
	}
}

// sweepExperiment is a tree of several gzip members, shaped like a sweep's:
// per run a unique ~16 KiB MoonGen log and ~16 KiB of latency samples (each
// its own inode, though the blob pool gives it a second link), plus, when
// shared, one capture repeated in every run.
func sweepExperiment(t *testing.T, runs int, shared bool) *results.Experiment {
	t.Helper()
	store, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exp, err := store.CreateExperiment("user", "sweep", time.Date(2020, 10, 12, 11, 20, 32, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { exp.Sync() })
	rng := rand.New(rand.NewSource(7))
	for run := 0; run < runs; run++ {
		var log, latency bytes.Buffer
		for log.Len() < 16<<10 {
			tx := float64(rng.Intn(20000)) / 1e4
			fmt.Fprintf(&log, "[Device: id=0] TX: %.4f Mpps, %.2f Mbit/s (%.2f Mbit/s with framing)\n", tx, tx*512, tx*672)
		}
		for latency.Len() < 16<<10 {
			fmt.Fprintf(&latency, "%d\n", 9000+rng.Intn(30000))
		}
		err := exp.AddRunArtifact(run, "loadgen", "moongen.log", log.Bytes())
		if err == nil {
			err = exp.AddRunArtifact(run, "loadgen", "latency.csv", latency.Bytes())
		}
		if err == nil && shared {
			err = exp.AddRunArtifact(run, "dut", "capture.out", sharedCapture)
		}
		if err == nil {
			err = exp.WriteRunMeta(results.RunMeta{Run: run})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return exp
}

func TestArchiveDeterministic(t *testing.T) {
	exp := sweepExperiment(t, 16, true)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first []byte
	for _, procs := range []int{1, 2, 8, 8} {
		runtime.GOMAXPROCS(procs)
		var buf bytes.Buffer
		if _, err := Archive(exp, "sweep", &buf); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
			if members := bytes.Count(first, []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0}); members < 3 {
				t.Fatalf("archive has about %d gzip members; the test needs several", members)
			}
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Errorf("GOMAXPROCS %d: archive differs from the one written under GOMAXPROCS 1", procs)
		}
	}
}

func TestArchiveWithoutSharedInodes(t *testing.T) {
	exp := sweepExperiment(t, 16, false)
	var buf bytes.Buffer
	if _, err := Archive(exp, "sweep", &buf); err != nil {
		t.Fatal(err)
	}
	if _, _, links := readArchive(t, buf.Bytes()); links != 0 {
		t.Errorf("hardlink entries = %d in a tree without shared inodes", links)
	}
	gz, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var single bytes.Buffer
	zw := gzip.NewWriter(&single)
	if _, err := io.Copy(zw, gz); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	if got, limit := buf.Len(), single.Len()+single.Len()/50; got > limit {
		t.Errorf("archive is %d bytes, a single-member gzip of the same tar %d: more than 2 %% apart", got, single.Len())
	}
}

func TestReleaseExtractsWithTar(t *testing.T) {
	tarBin, err := exec.LookPath("tar")
	if err != nil {
		t.Skip("no tar on PATH")
	}
	exp := sweepExperiment(t, 12, true)
	dest := filepath.Join(t.TempDir(), "artifacts.tar.gz")
	if _, err := Release(exp, "user", "sweep", dest); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if msg, err := exec.Command(tarBin, "-xzf", dest, "-C", out).CombinedOutput(); err != nil {
		t.Fatalf("tar -xzf: %v\n%s", err, msg)
	}
	diffs, err := compare.DiffExperiments(filepath.Join(out, "sweep-"+exp.ID()), exp.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Errorf("extracted tree differs from the experiment dir:\n%s", strings.Join(diffs, "\n"))
	}
}

func TestWebsite(t *testing.T) {
	exp := sampleExperiment(t)
	m, err := BuildManifest(exp, "user", "linux-router")
	if err != nil {
		t.Fatal(err)
	}
	site, err := Website(m)
	if err != nil {
		t.Fatal(err)
	}
	html := string(site)
	for _, want := range []string{
		"<!DOCTYPE html>",
		"linux-router",
		"3 measurement runs (1 failed)",
		"run_0000/",
		"experiment/measurement.sh",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("website missing %q", want)
		}
	}
}

func TestRelease(t *testing.T) {
	exp := sampleExperiment(t)
	dest := filepath.Join(t.TempDir(), "artifacts.tar.gz")
	m, err := Release(exp, "user", "linux-router", dest)
	if err != nil {
		t.Fatal(err)
	}
	if m.User != "user" {
		t.Errorf("user = %q", m.User)
	}
	// The website was generated into the experiment before archiving.
	if _, err := exp.ReadExperimentArtifact("index.html"); err != nil {
		t.Errorf("index.html missing: %v", err)
	}
	found := false
	for _, f := range m.Files {
		if f == "index.html" {
			found = true
		}
	}
	if !found {
		t.Error("index.html not in the released bundle")
	}
	fi, err := os.Stat(dest)
	if err != nil || fi.Size() == 0 {
		t.Errorf("archive missing or empty: %v", err)
	}
}

// A release that fails part-way — here an artifact the manifest lists has
// gone by the time it is read, after several members were compressed —
// reports the error, leaves nothing at destPath or beside it, and every
// goroutine it started (readers, compressors, emitter) has exited.
func TestReleaseFailureLeavesNoArchive(t *testing.T) {
	exp := sweepExperiment(t, 16, true)
	if err := exp.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(exp.Dir(), "run_0015", "loadgen", "moongen.log")); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	dest := filepath.Join(dir, "artifacts.tar.gz")
	if _, err := Release(exp, "user", "sweep", dest); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Release error = %v, want the missing artifact's", err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("failed release left %q behind", left[0].Name())
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		stacks := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the release, %d after:\n%s", before, n, stacks[:runtime.Stack(stacks, true)])
	}
}
