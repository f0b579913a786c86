package publish

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"html/template"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
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
	html := string(Website(m))
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

// indexTmpl is the index page as html/template renders it, kept as the
// oracle the hand renderer in Website must equal byte for byte.
var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html lang="en">
<head><meta charset="utf-8"><title>{{.Experiment}} — pos experiment artifacts</title>
<style>
body { font-family: sans-serif; max-width: 60em; margin: 2em auto; }
code { background: #f4f4f4; padding: 1px 4px; }
table { border-collapse: collapse; }
td, th { border: 1px solid #999; padding: 4px 10px; text-align: left; }
</style></head>
<body>
<h1>{{.Experiment}}</h1>
<p>Experiment <code>{{.ID}}</code>{{if .User}} by <code>{{.User}}</code>{{end}},
{{.Runs}} measurement runs ({{.FailedRuns}} failed).</p>
<p>This page was generated by the pos publication phase. It lists every
artifact of the experiment: the scripts and variable files that define it,
the per-run results and metadata the testbed collected, and the generated
plots.</p>
<h2>Sections</h2>
<table>
<tr><th>Section</th><th>Files</th></tr>
{{range .Sections}}<tr><td><code>{{.Name}}</code></td><td>{{.Count}}</td></tr>
{{end}}</table>
<h2>All artifacts</h2>
<ul>
{{range .Files}}<li><a href="{{.}}"><code>{{.}}</code></a></li>
{{end}}</ul>
</body></html>
`))

type section struct {
	Name  string
	Count int
}

// templateWebsite renders m through indexTmpl, its sections counted in a
// map and sorted by name.
func templateWebsite(t testing.TB, m Manifest) []byte {
	counts := map[string]int{}
	for _, f := range m.Files {
		top := f
		if i := strings.IndexByte(f, '/'); i >= 0 {
			top = f[:i] + "/"
		}
		counts[top]++
	}
	var sections []section
	for name, n := range counts {
		sections = append(sections, section{Name: name, Count: n})
	}
	sort.Slice(sections, func(i, j int) bool { return sections[i].Name < sections[j].Name })
	var b strings.Builder
	err := indexTmpl.Execute(&b, struct {
		Manifest
		Sections []section
	}{m, sections})
	if err != nil {
		t.Fatal(err)
	}
	return []byte(b.String())
}

// FuzzWebsite holds the hand-rendered page to html/template's, byte for
// byte. Files arrive newline-separated and are sorted, as a manifest's are.
// The seeds sit on the escapers' branches: the replaced characters, bytes
// that are not UTF-8, unsafe and safe URL schemes, a colon before and after
// the first slash, valid and broken percent escapes, characters the URL
// normalizer encodes, the empty user, no files, a top-level file, and a
// file whose name sorts beside a directory of the same stem.
func FuzzWebsite(f *testing.F) {
	for _, v := range []string{
		"<>&'\"+", "a\x00b", "\xff\xfe\xc3", "line\u2028sep", "Überprüfung/ü", "日本/語",
		"javascript:x", "JAVASCRIPT:x", "mailto:a", "MailTo:a", "http://h?a=b&c+d", "Http://h", "HTTPS://H/#frag",
		"a:b/c", "a/b:c", "%zz", "%41", "%4", "a b", "'()", "x y/z 'q'(1)",
	} {
		f.Add("linux-router", "2020-10-12_11-20-32_230471", "user", 3, 1, v)
		f.Add(v, v, v, 60, 0, "experiment/"+v+"\n"+v+"\nrun_0000/"+v)
	}
	f.Add("linux-router", "id", "", 0, 0, "run_0000/metadata.json")
	f.Add("linux-router", "id", "user", 0, 0, "")
	f.Add("exp", "id", "user", 1, 0, "index.html")
	f.Add("exp", "id", "user", 2, 1, "run_0001.txt\nrun_0001/x\nrun_0001/y\nrun_0001-a\nrun_00010/z")
	f.Fuzz(func(t *testing.T, experiment, id, user string, runs, failed int, files string) {
		m := Manifest{Experiment: experiment, ID: id, User: user, Runs: runs, FailedRuns: failed}
		if files != "" {
			m.Files = strings.Split(files, "\n")
			slices.Sort(m.Files)
		}
		got, want := Website(m), templateWebsite(t, m)
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("page differs from html/template's at byte %d:\n got  …%q\n want …%q",
				i, got[max(0, i-40):min(len(got), i+40)], want[max(0, i-40):min(len(want), i+40)])
		}
	})
}

// manifest241 is shaped like the bundle of the benchmark's 60-run result
// set: four files per run and the page itself.
func manifest241() Manifest {
	m := Manifest{Experiment: "linux-router", User: "user", ID: "2020-10-12_11-20-32_230471", Runs: 60}
	for run := 0; run < 60; run++ {
		dir := fmt.Sprintf("run_%04d/", run)
		m.Files = append(m.Files, dir+"dut/capture.out", dir+"loadgen/latency.csv", dir+"loadgen/moongen.log", dir+"metadata.json")
	}
	m.Files = append(m.Files, "index.html")
	slices.Sort(m.Files)
	return m
}

// websiteAllocBudget is the 1 object (the page) one page of manifest241
// cost when the budget was set (go1.24, on top of 148afae); 15 % above it
// rounds to the same. Rendered by html/template, as at 148afae, the same
// page cost 8 577.
const websiteAllocBudget = 1

func TestWebsiteAllocations(t *testing.T) {
	m := manifest241()
	if len(m.Files) != 241 {
		t.Fatalf("manifest has %d files, want 241", len(m.Files))
	}
	if !bytes.Equal(Website(m), templateWebsite(t, m)) {
		t.Fatal("page differs from html/template's")
	}
	if allocs := testing.AllocsPerRun(20, func() { Website(m) }); allocs > websiteAllocBudget {
		t.Errorf("Website(241 files) = %.0f allocs, budget %d", allocs, websiteAllocBudget)
	}
}

// archiveAllocBudget is 15 % above the 9.9 objects per archived file that
// archiving sweepExperiment(t, 16, true) cost when the budget was set
// (go1.24, on top of 148afae): about four are archive/tar's own, the rest
// the path, the entry name and the gzip members. With a goroutine, channel,
// os.FileInfo and os.ReadFile buffer per file, as at 148afae, it cost 18.1.
const archiveAllocBudget = 11.4

func TestArchiveAllocations(t *testing.T) {
	exp := sweepExperiment(t, 16, true)
	m, err := BuildManifest(exp, "", "sweep")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := archive(exp.Dir(), m, io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if perFile := allocs / float64(len(m.Files)); perFile > archiveAllocBudget {
		t.Errorf("archive = %.1f allocs per file (%d files), budget %.1f", perFile, len(m.Files), archiveAllocBudget)
	}
}

// Two releases of one experiment write the same page and archive the same
// entries: the first page already lists index.html, as every later one does.
func TestReleaseTwiceSamePage(t *testing.T) {
	exp := sampleExperiment(t)
	var pages [2][]byte
	var names [2][]string
	for i := range pages {
		dest := filepath.Join(t.TempDir(), "artifacts.tar.gz")
		if _, err := Release(exp, "user", "linux-router", dest); err != nil {
			t.Fatal(err)
		}
		page, err := exp.ReadExperimentArtifact("index.html")
		if err != nil {
			t.Fatal(err)
		}
		archive, err := os.ReadFile(dest)
		if err != nil {
			t.Fatal(err)
		}
		pages[i] = page
		names[i], _, _ = readArchive(t, archive)
	}
	if !bytes.Equal(pages[0], pages[1]) {
		t.Errorf("second release rewrote index.html:\nfirst:\n%s\nsecond:\n%s", pages[0], pages[1])
	}
	if !slices.Equal(names[0], names[1]) {
		t.Errorf("archive entries differ:\nfirst  %q\nsecond %q", names[0], names[1])
	}
	if !bytes.Contains(pages[0], []byte(`<a href="index.html">`)) {
		t.Error("the first release's page does not list index.html")
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

// Of several unreadable files, the archive reports the first in manifest
// order, whichever goroutine met its error first: here a directory whose
// read fails in a reader, ahead of a missing file the opener finds.
func TestArchiveReportsFirstErrorInOrder(t *testing.T) {
	exp := sweepExperiment(t, 16, false)
	if err := exp.Sync(); err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(exp.Dir(), "run_0002", "loadgen", "latency.csv")
	if err := os.Remove(first); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(first, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(exp.Dir(), "run_0009", "loadgen", "moongen.log")); err != nil {
		t.Fatal(err)
	}
	for range 5 {
		_, err := Archive(exp, "sweep", io.Discard)
		var pathErr *os.PathError
		if !errors.As(err, &pathErr) || pathErr.Path != first {
			t.Fatalf("Archive error = %v, want the read error of %s", err, first)
		}
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
