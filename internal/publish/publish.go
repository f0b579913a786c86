// Package publish implements the pos publication phase: it bundles every
// artifact linked to an experiment — scripts, variables, per-run results and
// metadata, generated plots — into a release archive and generates a website
// (index page) documenting the experimental structure, the way the paper's
// publish.py prepares the pos-artifacts repository and its GitHub-pages
// site.
//
// The index page is rendered by hand, appended into one buffer with every
// value escaped as html/template would escape it in its context. The tests
// keep the html/template original of the page and hold the renderer to it
// byte for byte (FuzzWebsite).
package publish

import (
	"archive/tar"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
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
	// The archive streams file contents straight from disk, so any run
	// still staged in the handle must commit first.
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
	prefix := m.Experiment + "-" + m.ID + "/"
	p := startPrefetch(dir, m.Files)
	defer p.close()
	hdr := tar.Header{Mode: 0o644}
	for i := range m.Files {
		s := p.next(i)
		if s.err != nil {
			return s.err
		}
		hdr.Name = prefix + s.rel
		hdr.Size = int64(len(s.data))
		hdr.ModTime = s.modTime
		hdr.Typeflag, hdr.Linkname = 0, ""
		if s.link != "" {
			hdr.Typeflag = tar.TypeLink
			hdr.Linkname = prefix + s.link
		}
		if err := tw.WriteHeader(&hdr); err != nil {
			return err
		}
		// The gzip member writer copies what it is given, so the slot's
		// buffer is free again as soon as Write returns.
		if _, err := tw.Write(s.data); err != nil {
			return err
		}
		p.release()
	}
	return tw.Close()
}

// The page, cut at its values. Website appends these verbatim and each
// value escaped for the context it sits in.
const (
	pageHead = `<!DOCTYPE html>
<html lang="en">
<head><meta charset="utf-8"><title>`
	pageStyle = ` — pos experiment artifacts</title>
<style>
body { font-family: sans-serif; max-width: 60em; margin: 2em auto; }
code { background: #f4f4f4; padding: 1px 4px; }
table { border-collapse: collapse; }
td, th { border: 1px solid #999; padding: 4px 10px; text-align: left; }
</style></head>
<body>
<h1>`
	pageID = `</h1>
<p>Experiment <code>`
	pageRuns = `,
`
	pageIntro = ` failed).</p>
<p>This page was generated by the pos publication phase. It lists every
artifact of the experiment: the scripts and variable files that define it,
the per-run results and metadata the testbed collected, and the generated
plots.</p>
<h2>Sections</h2>
<table>
<tr><th>Section</th><th>Files</th></tr>
`
	pageArtifacts = `</table>
<h2>All artifacts</h2>
<ul>
`
	pageTail = `</ul>
</body></html>
`
)

// Website renders the artifact index page. It is rendered by hand into one
// buffer, escaping every value as html/template would in its context: text
// and the title's RCDATA, and the double-quoted href of each artifact link.
// The tests keep the html/template original of the page as the oracle the
// output must equal byte for byte. Sections are the top-level entries of
// m.Files, counted in one pass over the sorted list.
func Website(m Manifest) []byte {
	// Sized for unescaped values: each file is listed twice, and its share
	// of a section row fits in the slack.
	n := len(pageHead) + len(pageStyle) + len(pageID) + len(pageRuns) + len(pageIntro) + len(pageArtifacts) + len(pageTail) +
		2*len(m.Experiment) + len(m.ID) + len(m.User) + 64
	for _, f := range m.Files {
		n += 2*len(f) + 56
	}
	b := make([]byte, 0, n)
	b = append(b, pageHead...)
	b = appendHTML(b, m.Experiment)
	b = append(b, pageStyle...)
	b = appendHTML(b, m.Experiment)
	b = append(b, pageID...)
	b = appendHTML(b, m.ID)
	b = append(b, "</code>"...)
	if m.User != "" {
		b = append(b, " by <code>"...)
		b = appendHTML(b, m.User)
		b = append(b, "</code>"...)
	}
	b = append(b, pageRuns...)
	b = strconv.AppendInt(b, int64(m.Runs), 10)
	b = append(b, " measurement runs ("...)
	b = strconv.AppendInt(b, int64(m.FailedRuns), 10)
	b = append(b, pageIntro...)
	// The sorted list keeps each section's files together, and in the order
	// of the section names: a path's section is a prefix of it, cut at its
	// first slash.
	for i := 0; i < len(m.Files); {
		name := sectionOf(m.Files[i])
		j := i + 1
		for j < len(m.Files) && sectionOf(m.Files[j]) == name {
			j++
		}
		b = append(b, "<tr><td><code>"...)
		b = appendHTML(b, name)
		b = append(b, "</code></td><td>"...)
		b = strconv.AppendInt(b, int64(j-i), 10)
		b = append(b, "</td></tr>\n"...)
		i = j
	}
	b = append(b, pageArtifacts...)
	for _, f := range m.Files {
		b = append(b, `<li><a href="`...)
		b = appendHref(b, f)
		b = append(b, `"><code>`...)
		b = appendHTML(b, f)
		b = append(b, "</code></a></li>\n"...)
	}
	return append(b, pageTail...)
}

// sectionOf is the top-level entry a manifest path belongs to: its first
// directory with the trailing slash, or the path itself at the top.
func sectionOf(f string) string {
	if i := strings.IndexByte(f, '/'); i >= 0 {
		return f[:i+1]
	}
	return f
}

// appendHTML appends s escaped for HTML text, RCDATA and quoted attribute
// values, the way html/template's escapers treat a plain string: NUL becomes
// U+FFFD, the five characters below become entities, and everything else
// (invalid UTF-8 included) is copied.
func appendHTML(b []byte, s string) []byte {
	written := 0
	for i := 0; i < len(s); i++ {
		var repl string
		switch s[i] {
		case 0:
			repl = "\uFFFD"
		case '"':
			repl = "&#34;"
		case '&':
			repl = "&amp;"
		case '\'':
			repl = "&#39;"
		case '+':
			repl = "&#43;"
		case '<':
			repl = "&lt;"
		case '>':
			repl = "&gt;"
		default:
			continue
		}
		b = append(b, s[written:i]...)
		b = append(b, repl...)
		written = i + 1
	}
	return append(b, s[written:]...)
}

// appendHref appends s as the value of a double-quoted href, the way
// html/template filters, normalizes and then attribute-escapes it. A URL
// whose scheme (text before a colon that precedes any slash) is not http,
// https or mailto, in any case, becomes "#ZgotmplZ". Every byte outside
// RFC 3986's unreserved and reserved sets, and a '%' that does not start
// two hex digits, is percent-encoded in lowercase hex.
func appendHref(b []byte, s string) []byte {
	if scheme, _, ok := strings.Cut(s, ":"); ok && !strings.Contains(scheme, "/") &&
		!strings.EqualFold(scheme, "http") && !strings.EqualFold(scheme, "https") && !strings.EqualFold(scheme, "mailto") {
		return append(b, "#ZgotmplZ"...)
	}
	const hex = "0123456789abcdef"
	written := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
			continue
		case strings.IndexByte("-._~!#$*,/:;=?@[]", c) >= 0:
			continue
		case c == '%' && i+2 < len(s) && isHex(s[i+1]) && isHex(s[i+2]):
			continue
		case c == '&' || c == '+':
			// Kept by the normalizer, escaped as attribute text.
			b = appendHTML(b, s[written:i+1])
		default:
			b = appendHTML(b, s[written:i])
			b = append(b, '%', hex[c>>4], hex[c&15])
		}
		written = i + 1
	}
	return appendHTML(b, s[written:])
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
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
	// The page lists itself: it is in the bundle it indexes, on the first
	// release as on every later one.
	if i, found := slices.BinarySearch(m.Files, "index.html"); !found {
		m.Files = slices.Insert(m.Files, i, "index.html")
	}
	if err := exp.AddExperimentArtifact("index.html", Website(m)); err != nil {
		return m, err
	}
	// The page is recorded in the manifest, which Sync writes.
	if err := exp.Sync(); err != nil {
		return m, fmt.Errorf("publish: %w", err)
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
