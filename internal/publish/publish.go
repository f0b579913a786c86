// Package publish implements the pos publication phase: it bundles every
// artifact linked to an experiment — scripts, variables, per-run results and
// metadata, generated plots — into a release archive and generates a website
// (index page) documenting the experimental structure, the way the paper's
// publish.py prepares the pos-artifacts repository and its GitHub-pages
// site.
package publish

import (
	"archive/tar"
	"fmt"
	"html/template"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"pos/internal/eventlog"
	"pos/internal/results"
)

// Manifest describes the published bundle.
type Manifest struct {
	Experiment string
	User       string
	ID         string
	// Files lists every bundled path (relative), sorted.
	Files []string
	// Runs is the number of measurement runs included.
	Runs int
	// FailedRuns counts runs whose metadata is marked failed.
	FailedRuns int
}

// BuildManifest inspects an experiment and reports what a bundle would
// contain. The file list streams from the store's manifest — already
// sorted, walk-parity by construction — so no directory tree traversal or
// stat storm happens here.
func BuildManifest(exp *results.Experiment, user, name string) (Manifest, error) {
	// The archive streams file contents straight from disk, so any
	// write-behind artifacts still in the store's queue must land first.
	if err := exp.Sync(); err != nil {
		return Manifest{}, fmt.Errorf("publish: %w", err)
	}
	files, err := exp.ArtifactPaths()
	if err != nil {
		return Manifest{}, fmt.Errorf("publish: %w", err)
	}
	// The execution record travels with the results: the event journal is
	// controller state outside the artifact manifest, so its segments are
	// listed here.
	if journal, _ := filepath.Glob(filepath.Join(exp.Dir(), eventlog.JournalDir, "events-*.jsonl")); len(journal) > 0 {
		for _, seg := range journal {
			files = append(files, eventlog.JournalDir+"/"+filepath.Base(seg))
		}
		sort.Strings(files)
	}
	m := Manifest{
		Experiment: name,
		User:       user,
		ID:         exp.ID(),
		Files:      files,
	}
	runs, err := exp.Runs()
	if err != nil {
		return Manifest{}, err
	}
	m.Runs = len(runs)
	for _, run := range runs {
		meta, err := exp.ReadRunMeta(run)
		if err != nil {
			continue
		}
		if meta.Failed {
			m.FailedRuns++
		}
	}
	return m, nil
}

// Archive writes the experiment directory as a gzipped tarball to w. Every
// entry is rooted at <name>-<id>/ so the archive unpacks cleanly with a
// plain tar xzf.
//
// Archive format. Entries follow the manifest's sorted order. Artifacts the
// content-addressed store deduplicated are several paths of one inode: the
// first path carries the bytes, every later one is a tar hardlink entry
// (tar.TypeLink) naming the first, as tar(1) itself would archive the tree,
// so extraction restores it and shared content is neither read nor
// compressed twice. Extracting a single linked entry needs its target too.
// The tar stream is compressed as consecutive gzip members of 128 KiB input
// each, deflated in parallel; the bytes written depend only on the tree,
// never on GOMAXPROCS or scheduling.
func Archive(exp *results.Experiment, name string, w io.Writer) (Manifest, error) {
	m, err := BuildManifest(exp, "", name)
	if err != nil {
		return m, err
	}
	if err := archive(exp.Dir(), m, w); err != nil {
		return m, fmt.Errorf("publish: %w", err)
	}
	return m, nil
}

// archive writes the files m lists, read from dir, to w.
func archive(dir string, m Manifest, w io.Writer) error {
	mw := newMemberWriter(w)
	err := writeTar(dir, m, mw)
	if cerr := mw.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeTar streams the tar to w. File reads are prefetched by a small
// window of readers running ahead of the tar writer; all of them have
// exited when it returns.
func writeTar(dir string, m Manifest, w io.Writer) error {
	tw := tar.NewWriter(w)
	prefix := fmt.Sprintf("%s-%s/", m.Experiment, m.ID)
	files := make(chan chan fileData, prefetchWindow)
	stop := make(chan struct{})
	go prefetchFiles(dir, m.Files, files, stop)
	defer func() {
		close(stop)
		for range files {
		}
	}()
	for slot := range files {
		fd := <-slot
		if fd.err != nil {
			return fd.err
		}
		hdr := &tar.Header{
			Name:    prefix + fd.rel,
			Mode:    0o644,
			Size:    int64(len(fd.data)),
			ModTime: fd.modTime,
		}
		if fd.link != "" {
			hdr.Typeflag = tar.TypeLink
			hdr.Linkname = prefix + fd.link
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		if _, err := tw.Write(fd.data); err != nil {
			return err
		}
	}
	return tw.Close()
}

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

// Website renders the artifact index page.
func Website(m Manifest) ([]byte, error) {
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
		return nil, fmt.Errorf("publish: %w", err)
	}
	return []byte(b.String()), nil
}

// Release performs the full publication step: generate the website into the
// experiment directory (index.html), then write the archive to destPath.
// The archive is written beside destPath and renamed into place, so a
// failed release leaves no file there.
func Release(exp *results.Experiment, user, name, destPath string) (Manifest, error) {
	m, err := BuildManifest(exp, user, name)
	if err != nil {
		return m, err
	}
	site, err := Website(m)
	if err != nil {
		return m, err
	}
	if err := exp.AddExperimentArtifact("index.html", site); err != nil {
		return m, err
	}
	// The page is a write-behind artifact: it must land before it is read.
	if err := exp.Sync(); err != nil {
		return m, fmt.Errorf("publish: %w", err)
	}
	if i, found := slices.BinarySearch(m.Files, "index.html"); !found {
		m.Files = slices.Insert(m.Files, i, "index.html")
	}
	tmp, err := os.CreateTemp(filepath.Dir(destPath), ".tmp-*")
	if err != nil {
		return m, fmt.Errorf("publish: %w", err)
	}
	err = archive(exp.Dir(), m, tmp)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), destPath)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return m, fmt.Errorf("publish: %w", err)
	}
	return m, nil
}
