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
	"syscall"
	"time"

	"pos/internal/eventlog"
	"pos/internal/jsonenc"
)

// The run manifest is the experiment's index: which runs exist, each run's
// metadata, and every artifact path recorded. It is maintained in memory by
// the experiment handle and flushed write-behind: mutations are applied
// immediately (so readers on the same handle are never stale), marked
// pending, and a background flusher group-commits the accumulated state in
// one atomic file write. Backpressure bounds the number of unflushed
// mutations, so a wedged disk slows writers down instead of growing an
// unbounded queue.
//
// The manifest lives at <root>/.posindex/<user>/<experiment>/<id>.json —
// outside the experiment directory, so the published layout stays
// byte-identical to the paper's. Reopening an experiment loads the manifest;
// a missing or corrupt manifest is rebuilt from a tree scan (the slow path
// the manifest exists to avoid).

// maxPendingMutations bounds the write-behind queue. A writer that gets
// this far ahead of the flusher blocks until a group commit completes.
const maxPendingMutations = 512

// flushWindow is how long the flusher waits before each group commit so
// back-to-back writers accumulate into one manifest write. Skipped when a
// Sync is waiting or the queue is saturated, and cut short when either
// happens while it runs.
const flushWindow = 2 * time.Millisecond

// index is the in-memory manifest.
type index struct {
	gen  uint64
	runs map[int]*indexRun
	exp  map[string]struct{} // experiment-level artifacts, slash paths

	// expFrag caches the encoded experiment_artifacts member the way
	// indexRun.frag caches a run's; fragEncodes counts run fragments built,
	// which is what a test holds against the number of runs touched.
	expFrag     []byte
	fragEncodes int
}

type indexRun struct {
	key       string // the run number as the manifest's object key
	staged    bool   // not committed yet: a manifest written now leaves it out
	hasMeta   bool
	meta      RunMeta
	artifacts map[string]struct{} // "<node>/<artifact>" slash paths

	// frag caches this run's encoded member of the manifest's "runs" object
	// (`"<key>":{...}`). A group commit re-encodes only the runs mutated since
	// the last one and assembles the file by concatenation, so the flusher
	// holds the experiment lock for a copy, not a walk over every run recorded
	// so far. setMeta and addRunArtifact invalidate it; dropFragments releases
	// all of them when the flusher goes idle, so a handle that outlives its
	// campaign — held by a reader, or pinned in the store's recent ring —
	// holds the manifest once, not once more as encoded bytes.
	frag []byte
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
	entry.frag = nil
}

func (idx *index) addRunArtifact(run int, rel string) {
	entry := idx.run(run)
	entry.artifacts[rel] = struct{}{}
	entry.frag = nil
}

func (idx *index) addExperimentArtifact(rel string) {
	idx.exp[rel] = struct{}{}
	idx.expFrag = nil
}

// dropFragments releases every cached fragment.
func (idx *index) dropFragments() {
	idx.expFrag = nil
	for _, entry := range idx.runs {
		entry.frag = nil
	}
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

// encode appends the manifest file to dst: header, the cached
// experiment_artifacts member, then the runs' cached fragments in the order
// encoding/json sorts object keys (as strings, so "10" precedes "2"). Runs
// still staged are left out: their files are not on disk.
func (idx *index) encode(dst []byte) ([]byte, error) {
	dst = append(dst, `{"version":`...)
	dst = strconv.AppendInt(dst, manifestVersion, 10)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, idx.gen, 10)
	if len(idx.exp) > 0 {
		if idx.expFrag == nil {
			idx.expFrag = appendSortedSet(append([]byte(nil), `,"experiment_artifacts":`...), idx.exp)
		}
		dst = append(dst, idx.expFrag...)
	}
	order := make([]*indexRun, 0, len(idx.runs))
	for _, entry := range idx.runs {
		if !entry.staged {
			order = append(order, entry)
		}
	}
	if len(order) > 0 {
		slices.SortFunc(order, func(a, b *indexRun) int { return strings.Compare(a.key, b.key) })
		dst = append(dst, `,"runs":{`...)
		for i, entry := range order {
			if entry.frag == nil {
				frag, err := entry.encode()
				if err != nil {
					return dst, fmt.Errorf("manifest run %s: %w", entry.key, err)
				}
				entry.frag = frag
				idx.fragEncodes++
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, entry.frag...)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// encode builds the run's member of the "runs" object.
func (entry *indexRun) encode() ([]byte, error) {
	frag := make([]byte, 0, 256)
	frag = jsonenc.AppendString(frag, entry.key)
	frag = append(frag, ':', '{')
	if entry.hasMeta {
		var err error
		frag = append(frag, `"meta":`...)
		if frag, err = entry.meta.appendJSON(frag, false); err != nil {
			return nil, err
		}
	}
	if len(entry.artifacts) > 0 {
		if entry.hasMeta {
			frag = append(frag, ',')
		}
		frag = append(frag, `"artifacts":`...)
		frag = appendSortedSet(frag, entry.artifacts)
	}
	return append(frag, '}'), nil
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
// that crashed before its final flush leaves a manifest that is a
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
// path, and schedules a write-behind flush.
func (e *Experiment) mutate(record func(*index)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.ensureIndexLocked(); err != nil {
		return err
	}
	record(e.idx)
	e.idx.gen++
	e.pendingLocked()
	return nil
}

// pendingLocked counts one manifest mutation, first waiting while the queue
// is at its bound (backpressure), and makes sure a flusher will commit it.
// Caller holds e.mu.
func (e *Experiment) pendingLocked() {
	for e.pending >= maxPendingMutations {
		e.cutWindowLocked()
		e.cond.Wait()
	}
	e.pending++
	manifestPending.Inc()
	if !e.flushing {
		e.flushing = true
		go e.flushLoop()
	}
}

// flushLoop group-commits the manifest: every iteration commits the staged
// runs queued since the last, then writes the manifest once, covering all
// mutations that accumulated while the previous write was in flight. The
// manifest is encoded before the commits and written after them, so it never
// names a file that is not on disk. It exits, releasing the encode
// buffer and the cached fragments, once a whole window has passed with
// nothing to commit — or at once when a Sync is waiting for exactly that. A
// campaign's runs arrive closer together than a window, so its flusher, and
// with it the fragment cache, lives for the campaign.
//
// The goroutine is also what keeps a handle its writer has dropped alive, and
// so registered (see registry.go), while it still owes the disk anything: the
// collector can take the handle only after this function has returned, which
// it does with the manifest clean on disk — exactly what the next open of the
// experiment needs to find.
func (e *Experiment) flushLoop() {
	// One encode buffer for the flusher's lifetime: the manifest is encoded
	// under the lock and written outside it, and the next encode cannot start
	// before that write returns.
	var buf []byte
	e.mu.Lock()
	for {
		if e.syncWaiters == 0 && e.pending < maxPendingMutations {
			e.waitWindowLocked()
		}
		if e.pending == 0 && len(e.commits) == 0 {
			break
		}
		commits := e.commits
		e.commits = nil
		for _, st := range commits {
			st.committing = true
		}
		data, err := e.idx.encode(buf[:0])
		buf = data
		manifestPending.Add(-float64(e.pending))
		e.pending = 0
		e.cond.Broadcast() // wake writers blocked on backpressure
		e.mu.Unlock()
		// An experiment that has been removed (pruned, or a test tearing its
		// tree down) gets neither its runs nor a manifest: writing them
		// would resurrect deleted directories.
		var sys syscall.Stat_t
		gone := syscall.Stat(e.dir, &sys) != nil
		if cerr := e.commitRuns(commits, gone); cerr != nil && err == nil {
			err = cerr
		}
		if err == nil && !gone {
			err = e.writeManifest(data)
			if err == nil {
				manifestFlushes.Inc()
			}
		}
		e.mu.Lock()
		if err != nil && e.flushErr == nil {
			e.flushErr = err
		}
	}
	e.flushing = false
	e.idx.dropFragments()
	e.cond.Broadcast() // wake Sync waiters
	e.mu.Unlock()
}

// waitWindowLocked releases e.mu for one flushWindow, or until
// cutWindowLocked ends it. Caller holds e.mu and is the flusher.
func (e *Experiment) waitWindowLocked() {
	window := make(chan struct{})
	e.window = window
	e.mu.Unlock()
	timer := time.NewTimer(flushWindow)
	select {
	case <-timer.C:
	case <-window:
		timer.Stop()
	}
	e.mu.Lock()
	e.window = nil
}

// cutWindowLocked ends the flusher's current window, if it is in one: whoever
// is about to block on the flush has nothing to gain from more accumulation.
// Caller holds e.mu.
func (e *Experiment) cutWindowLocked() {
	if e.window != nil {
		close(e.window)
		e.window = nil
	}
}

// commitRuns commits the runs one group commit took; the first error wins.
// A run that fails to commit, or has nothing to commit (its every write
// failed), leaves no directory behind and is dropped from the manifest:
// nothing may name files that are not on disk. The runs of an experiment
// whose tree is gone are dropped unwritten.
func (e *Experiment) commitRuns(runs []*stagedRun, gone bool) (first error) {
	for _, st := range runs {
		var err error
		empty := len(st.files) == 0 && st.meta == nil
		if !gone && !empty {
			err = e.commit(st)
		}
		if (err != nil || empty) && st.dir != "" {
			os.RemoveAll(st.dir)
		}
		e.mu.Lock()
		delete(e.staged, st.run)
		if err != nil || empty {
			delete(e.idx.runs, st.run)
			e.idx.gen++
			first = cmp.Or(first, err)
		}
		e.cond.Broadcast() // wake writers and readers waiting out the commit
		e.mu.Unlock()
	}
	return first
}

func (e *Experiment) writeManifest(data []byte) error {
	path := e.indexPath()
	if err := mkdirAll(filepath.Dir(path)); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	return e.store.writeFileAtomic(path, data, "")
}

// Sync commits every run still staged, blocks until every pending manifest
// mutation has been flushed and returns the first flush error, if any.
// Runners call it when an experiment execution completes; it is cheap when
// the manifest is already clean.
func (e *Experiment) Sync() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.waitIdleLocked()
	return e.flushErr
}

// waitIdleLocked queues the commit of every run still staged and blocks until
// the flusher has committed everything and exited. A waiter ends the
// flusher's current window, accumulating or trailing: it has nothing to gain
// from either. Caller holds e.mu.
func (e *Experiment) waitIdleLocked() {
	for _, st := range e.staged {
		if !st.queued {
			e.queueCommitLocked(st)
		}
	}
	e.syncWaiters++
	e.cutWindowLocked()
	for e.flushing || e.pending > 0 || len(e.commits) > 0 {
		e.cond.Wait()
	}
	e.syncWaiters--
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
// and rebuilds it from the on-disk tree and flushes it synchronously. Use
// after out-of-band modifications to an experiment directory.
func (e *Experiment) RebuildIndex() error {
	e.Sync() // a flush error stays for the next Sync to report
	idx, err := scanTree(e.dir)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.waitIdleLocked()
	// Continue the persisted generation sequence — a rebuild must never
	// regress the counter, or stale cache entries would re-validate.
	if e.idx == nil {
		e.ensureIndexLocked()
	}
	oldGen := uint64(0)
	if e.idx != nil {
		oldGen = e.idx.gen
	}
	idx.gen = oldGen + 1
	for run := range e.staged { // staged during the scan, not on disk yet
		idx.runs[run] = e.idx.runs[run]
	}
	e.idx = idx
	data, err := idx.encode(nil)
	idx.dropFragments()
	e.mu.Unlock()
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	return e.writeManifest(data)
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
