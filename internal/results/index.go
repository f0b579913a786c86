package results

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"pos/internal/eventlog"
	"pos/internal/jsonenc"
)

// The run manifest is the experiment's index: which runs exist, each run's
// metadata, and every artifact path recorded. The experiment handle keeps it
// in memory, so readers on the same handle are never stale; a write marks it
// dirty, and Sync writes it in one atomic file write, on the caller's
// goroutine, after committing every run still staged.
//
// The manifest lives at <root>/.posindex/<user>/<experiment>/<id>.json —
// outside the experiment directory, so the published layout stays
// byte-identical to the paper's. Reopening an experiment loads the manifest;
// a missing or corrupt manifest is rebuilt from a tree scan (the slow path
// the manifest exists to avoid).

// index is the in-memory manifest.
type index struct {
	gen  uint64
	runs map[int]*indexRun
	exp  map[string]struct{} // experiment-level artifacts, slash paths
}

type indexRun struct {
	key       string // the run number as the manifest's object key
	hasMeta   bool
	meta      RunMeta
	artifacts map[string]struct{} // "<node>/<artifact>" slash paths
}

func newIndex() *index {
	return &index{runs: make(map[int]*indexRun), exp: make(map[string]struct{})}
}

func (idx *index) run(n int) *indexRun {
	entry := idx.runs[n]
	if entry == nil {
		entry = &indexRun{key: strconv.Itoa(n), artifacts: make(map[string]struct{})}
		idx.runs[n] = entry
	}
	return entry
}

func (idx *index) setMeta(meta RunMeta) {
	entry := idx.run(meta.Run)
	entry.hasMeta = true
	entry.meta = meta
}

func (idx *index) addRunArtifact(run int, rel string) {
	idx.run(run).artifacts[rel] = struct{}{}
}

func (idx *index) addExperimentArtifact(rel string) {
	idx.exp[rel] = struct{}{}
}

// manifestFile is the persisted form. Non-test code only decodes through it:
// encode writes the same bytes json.Marshal(manifestFile) would, member by
// member, and a test holds it to that.
type manifestFile struct {
	Version    int                     `json:"version"`
	Generation uint64                  `json:"generation"`
	Experiment []string                `json:"experiment_artifacts,omitempty"`
	Runs       map[string]*manifestRun `json:"runs,omitempty"`
}

type manifestRun struct {
	Meta      *RunMeta `json:"meta,omitempty"`
	Artifacts []string `json:"artifacts,omitempty"`
}

const manifestVersion = 1

// encode appends the manifest file to dst: header, experiment_artifacts,
// then the runs in the order encoding/json sorts object keys (as strings, so
// "10" precedes "2").
func (idx *index) encode(dst []byte) ([]byte, error) {
	dst = append(dst, `{"version":`...)
	dst = strconv.AppendInt(dst, manifestVersion, 10)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, idx.gen, 10)
	if len(idx.exp) > 0 {
		dst = append(dst, `,"experiment_artifacts":`...)
		dst = appendSortedSet(dst, idx.exp)
	}
	if len(idx.runs) > 0 {
		order := make([]*indexRun, 0, len(idx.runs))
		for _, entry := range idx.runs {
			order = append(order, entry)
		}
		slices.SortFunc(order, func(a, b *indexRun) int { return strings.Compare(a.key, b.key) })
		dst = append(dst, `,"runs":{`...)
		for i, entry := range order {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = entry.appendJSON(dst); err != nil {
				return dst, fmt.Errorf("manifest run %s: %w", entry.key, err)
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// appendJSON appends the run's member of the "runs" object.
func (entry *indexRun) appendJSON(dst []byte) ([]byte, error) {
	dst = jsonenc.AppendString(dst, entry.key)
	dst = append(dst, ':', '{')
	if entry.hasMeta {
		var err error
		dst = append(dst, `"meta":`...)
		if dst, err = entry.meta.appendJSON(dst, false); err != nil {
			return dst, err
		}
	}
	if len(entry.artifacts) > 0 {
		if entry.hasMeta {
			dst = append(dst, ',')
		}
		dst = append(dst, `"artifacts":`...)
		dst = appendSortedSet(dst, entry.artifacts)
	}
	return append(dst, '}'), nil
}

// appendJSON appends the metadata as json.Marshal(RunMeta) writes it, or,
// indented, as json.MarshalIndent(meta, "", "  ") writes it.
func (m *RunMeta) appendJSON(dst []byte, indented bool) ([]byte, error) {
	var err error
	dst = appendKey(dst, '{', "run", indented, 1)
	dst = strconv.AppendInt(dst, int64(m.Run), 10)
	dst = appendKey(dst, ',', "loop_vars", indented, 1)
	if indented && len(m.LoopVars) > 0 {
		dst = appendIndentedMap(dst, m.LoopVars)
	} else {
		dst = jsonenc.AppendStringMap(dst, m.LoopVars)
	}
	dst = appendKey(dst, ',', "started_at", indented, 1)
	if dst, err = jsonenc.AppendTime(dst, m.StartedAt); err != nil {
		return dst, err
	}
	dst = appendKey(dst, ',', "finished_at", indented, 1)
	if dst, err = jsonenc.AppendTime(dst, m.FinishedAt); err != nil {
		return dst, err
	}
	if m.Failed {
		dst = appendKey(dst, ',', "failed", indented, 1)
		dst = append(dst, "true"...)
	}
	if m.Error != "" {
		dst = appendKey(dst, ',', "error", indented, 1)
		dst = jsonenc.AppendString(dst, m.Error)
	}
	dst = appendIndent(dst, indented, 0)
	return append(dst, '}'), nil
}

// appendKey appends sep (the '{' that opens an object or the ',' that ends
// the member before), the member's line break and indent at depth when
// indented, and its key with the colon.
func appendKey(dst []byte, sep byte, key string, indented bool, depth int) []byte {
	dst = appendIndent(append(dst, sep), indented, depth)
	dst = jsonenc.AppendString(dst, key)
	if indented {
		return append(dst, ':', ' ')
	}
	return append(dst, ':')
}

func appendIndent(dst []byte, indented bool, depth int) []byte {
	if !indented {
		return dst
	}
	dst = append(dst, '\n')
	for range depth {
		dst = append(dst, "  "...)
	}
	return dst
}

// appendIndentedMap appends a non-empty loop-variable map as a member one
// level down, keys sorted, as json.MarshalIndent writes it.
func appendIndentedMap(dst []byte, vars map[string]string) []byte {
	var stack [8]string
	keys := stack[:0]
	for k := range vars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sep := byte('{')
	for _, k := range keys {
		dst = appendKey(dst, sep, k, true, 2)
		dst = jsonenc.AppendString(dst, vars[k])
		sep = ','
	}
	dst = appendIndent(dst, true, 1)
	return append(dst, '}')
}

// appendSortedSet appends a non-empty path set as a sorted JSON array.
func appendSortedSet(dst []byte, set map[string]struct{}) []byte {
	var stack [16]string
	keys := stack[:0]
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = append(dst, '[')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonenc.AppendString(dst, k)
	}
	return append(dst, ']')
}

func decodeIndex(data []byte) (*index, error) {
	var mf manifestFile
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, err
	}
	if mf.Version != manifestVersion {
		return nil, fmt.Errorf("manifest version %d", mf.Version)
	}
	idx := newIndex()
	idx.gen = mf.Generation
	for _, rel := range mf.Experiment {
		idx.exp[rel] = struct{}{}
	}
	for key, mr := range mf.Runs {
		run, err := strconv.Atoi(key)
		if err != nil || run < 0 {
			return nil, fmt.Errorf("manifest run key %q", key)
		}
		entry := idx.run(run)
		for _, rel := range mr.Artifacts {
			entry.artifacts[rel] = struct{}{}
		}
		if mr.Meta != nil {
			entry.hasMeta = true
			entry.meta = mr.Meta.clone()
		}
	}
	return idx, nil
}

func (s *Store) indexPath(user, name, id string) string {
	return filepath.Join(s.root, indexDirName, user, name, id+".json")
}

func (e *Experiment) indexPath() string {
	return e.store.indexPath(e.user, e.name, e.id)
}

// ensureIndexLocked loads or rebuilds the manifest. Caller holds e.mu.
func (e *Experiment) ensureIndexLocked() error {
	if e.idx != nil {
		return nil
	}
	var gen uint64
	if data, err := os.ReadFile(e.indexPath()); err == nil {
		idx, derr := decodeIndex(data)
		if derr == nil && e.indexMatchesTree(idx) {
			e.idx = idx
			return nil
		}
		if derr == nil {
			// Stale: the rebuild continues its generation, as RebuildIndex
			// does, so warm eval cache entries keyed on it cannot re-validate.
			gen = idx.gen + 1
		}
		// Corrupt or stale manifest: fall through to a rebuild.
	}
	idx, err := scanTree(e.dir)
	if err != nil {
		return err
	}
	idx.gen = gen
	e.idx = idx
	return nil
}

// indexMatchesTree is the shallow staleness probe run when a manifest is
// loaded from disk: one readdir of the experiment root, comparing the run
// directory set and the top-level entry set against the manifest. A writer
// that crashed before its final Sync leaves a manifest that is a
// consistent-but-old snapshot — typically missing whole runs — which this
// catches at the cost of a single directory read instead of a tree walk.
// Out-of-band edits inside an existing run directory are not detectable
// this cheaply; RebuildIndex covers those. The event journal is not the
// store's to list (see scanTree), so it is no sign of staleness, and neither
// is a temp file or staging directory in flight.
func (e *Experiment) indexMatchesTree(idx *index) bool {
	entries, err := os.ReadDir(e.dir)
	if err != nil {
		return false
	}
	diskRuns := make(map[int]bool)
	diskTops := make(map[string]bool)
	for _, ent := range entries {
		if ent.Name() == eventlog.JournalDir || strings.HasPrefix(ent.Name(), tmpPrefix) {
			continue
		}
		if run, ok := parseRunDir(ent.Name()); ok && ent.IsDir() {
			diskRuns[run] = true
			continue
		}
		diskTops[ent.Name()] = true
	}
	if len(diskRuns) != len(idx.runs) {
		return false
	}
	for run := range idx.runs {
		if !diskRuns[run] {
			return false
		}
	}
	idxTops := make(map[string]bool)
	for rel := range idx.exp {
		top := rel
		if i := strings.IndexByte(rel, '/'); i >= 0 {
			top = rel[:i]
		}
		idxTops[top] = true
	}
	if len(diskTops) != len(idxTops) {
		return false
	}
	for name := range diskTops {
		if !idxTops[name] {
			return false
		}
	}
	return true
}

// scanTree rebuilds a manifest from the on-disk layout — the legacy walk,
// run once on reopen instead of on every enumeration. The event journal
// (eventlog.JournalDir) is skipped: eventlog writes it beside the store, the
// live manifest never lists it, and publish.BuildManifest adds its segments.
// So is every temp file and staging directory, at any depth: neither is a
// result yet.
func scanTree(dir string) (*index, error) {
	idx := newIndex()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if name == eventlog.JournalDir || strings.HasPrefix(name, tmpPrefix) {
			continue
		}
		if run, ok := parseRunDir(name); ok && ent.IsDir() {
			if err := scanRunDir(idx, filepath.Join(dir, name), run); err != nil {
				return nil, err
			}
			continue
		}
		// Everything else is experiment-level artifact territory.
		if err := scanExperimentArtifacts(idx, dir, filepath.Join(dir, name)); err != nil {
			return nil, err
		}
	}
	return idx, nil
}

func scanRunDir(idx *index, base string, run int) error {
	entry := idx.run(run)
	err := walkFiles(base, func(path string) error {
		rel, err := filepath.Rel(base, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if rel == "metadata.json" {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			meta, err := DecodeRunMeta(data)
			if err != nil {
				return fmt.Errorf("run %d metadata: %w", run, err)
			}
			entry.hasMeta = true
			entry.meta = meta
			return nil
		}
		entry.artifacts[rel] = struct{}{}
		return nil
	})
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	return nil
}

func scanExperimentArtifacts(idx *index, dir, path string) error {
	err := walkFiles(path, func(p string) error {
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		idx.addExperimentArtifact(filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	return nil
}

// walkFiles calls fn for every file below root but temp files and staging
// directories.
func walkFiles(root string, fn func(path string) error) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case strings.HasPrefix(d.Name(), tmpPrefix) && d.IsDir():
			return filepath.SkipDir
		case strings.HasPrefix(d.Name(), tmpPrefix) || d.IsDir():
			return nil
		}
		return fn(path)
	})
}

// mutate records one manifest entry, a file written through the per-file
// path, and marks the manifest dirty.
func (e *Experiment) mutate(record func(*index)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.ensureIndexLocked(); err != nil {
		return err
	}
	record(e.idx)
	e.idx.gen++
	e.dirtyLocked()
	return nil
}

// dirtyLocked marks the manifest as changed since it was last written, and
// has the store hold the handle until Sync writes it. Caller holds e.mu.
func (e *Experiment) dirtyLocked() {
	if !e.dirty {
		e.dirty = true
		e.store.handles.hold(e, true)
	}
}

func (e *Experiment) writeManifest(data []byte) error {
	path := e.indexPath()
	if err := mkdirAll(filepath.Dir(path)); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	return e.store.writeFileAtomic(path, data, "")
}

// Sync commits every run still staged, then writes the manifest if anything
// changed since it was last written, and returns the first error. Runners
// call it when an experiment execution completes; it is cheap when the
// manifest is already clean.
func (e *Experiment) Sync() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.syncLocked()
}

// syncLocked is Sync. The runs commit before the manifest is encoded, so it
// never names a file that is not on disk. Caller holds e.mu.
func (e *Experiment) syncLocked() error {
	first := e.commitStagedLocked()
	if !e.dirty {
		return first
	}
	data, err := e.idx.encode(make([]byte, 0, 256*len(e.idx.runs)+512))
	if err != nil {
		err = fmt.Errorf("results: %w", err)
	} else {
		err = e.writeManifest(data)
	}
	if err != nil {
		return cmp.Or(first, err)
	}
	manifestFlushes.Inc()
	e.dirty = false
	e.store.handles.hold(e, false)
	return first
}

// Generation returns the experiment's manifest generation counter. It bumps
// on every recorded write — rewritten metadata, re-uploaded artifacts — and
// is the invalidation key for warm evaluation caches. ok is false when the
// manifest cannot be loaded or rebuilt; such experiments are uncacheable.
func (e *Experiment) Generation() (gen uint64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.ensureIndexLocked(); err != nil {
		return 0, false
	}
	return e.idx.gen, true
}

// ArtifactPaths returns every file recorded for the experiment as sorted,
// slash-separated paths relative to the experiment directory — exactly what
// a tree walk would list, without the walk. The publication phase streams
// from this list.
func (e *Experiment) ArtifactPaths() ([]string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.ensureIndexLocked(); err != nil {
		return nil, err
	}
	return e.idx.paths(), nil
}

func (idx *index) paths() []string {
	var out []string
	for rel := range idx.exp {
		out = append(out, rel)
	}
	for run, entry := range idx.runs {
		prefix := runDirName(run) + "/"
		if entry.hasMeta {
			out = append(out, prefix+"metadata.json")
		}
		for rel := range entry.artifacts {
			out = append(out, prefix+rel)
		}
	}
	sort.Strings(out)
	return out
}

// RebuildIndex commits what the handle has staged, then discards the manifest
// and rebuilds it from the on-disk tree and writes it. Use after out-of-band
// modifications to an experiment directory.
func (e *Experiment) RebuildIndex() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	first := e.commitStagedLocked()
	idx, err := scanTree(e.dir)
	if err != nil {
		return err
	}
	// Continue the persisted generation sequence — a rebuild must never
	// regress the counter, or stale cache entries would re-validate.
	if e.idx == nil {
		e.ensureIndexLocked()
	}
	if e.idx != nil {
		idx.gen = e.idx.gen + 1
	}
	e.idx = idx
	e.dirtyLocked()
	return cmp.Or(e.syncLocked(), first)
}

// IndexInfo summarizes the manifest for inspection tooling.
type IndexInfo struct {
	Generation          uint64
	Runs                int
	RunArtifacts        int
	ExperimentArtifacts int
}

// IndexInfo reports the manifest's current shape.
func (e *Experiment) IndexInfo() (IndexInfo, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.ensureIndexLocked(); err != nil {
		return IndexInfo{}, err
	}
	info := IndexInfo{
		Generation:          e.idx.gen,
		Runs:                len(e.idx.runs),
		ExperimentArtifacts: len(e.idx.exp),
	}
	for _, entry := range e.idx.runs {
		info.RunArtifacts += len(entry.artifacts)
	}
	return info, nil
}
