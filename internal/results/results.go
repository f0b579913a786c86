// Package results implements pos' central result collection (requirement
// R5). Every experiment gets a timestamped directory tree in the paper's
// layout — <root>/<user>/<experiment>/<timestamp>/ — holding per-run result
// files, per-run loop-parameter metadata, the executed scripts and variable
// files, and experiment-wide artifacts. The enforced structure is what makes
// the evaluation and publication phases mechanical.
//
// On top of the paper layout the store maintains a fast path:
//
//   - a per-experiment run manifest (see index.go) kept in memory by the
//     experiment's handle and flushed write-behind, so enumerating runs and
//     artifacts never walks the tree again;
//   - content-addressed blob storage (see blob.go) that deduplicates
//     identical artifacts — a 60-run sweep writes each repeated script or
//     variable file once and hardlinks it into every run;
//   - a generation counter per experiment that downstream caches (eval)
//     use for invalidation.
//
// Both live outside the experiment directories (<root>/.posindex,
// <root>/.posblob), so the on-disk experiment layout stays byte-identical
// to the paper's artifacts.
//
// Three invariants hold it together.
//
// The one-handle invariant: while anything can still use an experiment's
// handle, every open of that experiment through the same store returns that
// handle, so a manifest has one writer and readers see its in-memory state.
// The store registers handles weakly (see registry.go): a handle is pinned by
// whoever holds it, by its flusher until the manifest is clean on disk, and by
// the store's fixed ring of recently used handles; past that it is garbage,
// manifest and all, and the next open reloads it from .posindex. A store that
// runs for months holds the experiments in use, not its history.
//
// The fresh-directory invariant: a directory this handle created holds only
// what this handle wrote; elsewhere the disk is asked. Small files are
// written behind the manifest flusher, but an overwrite of a file already on
// disk must be synchronous, or readers would be served the old bytes until
// the next drain. Whether a path is on disk is answered from the manifest
// entry and the flusher's queue when the handle made the directory itself (a
// Mkdir that succeeded — nothing else can have put a file there), and by an
// Lstat when the directory was found there, which is what keeps files placed
// out-of-band, and squatters on a reserved name, honest. A campaign into a
// fresh experiment therefore records its runs without a single stat. The memo
// of directories made lives and dies with the handle: a reopened handle knows
// nothing, so it asks the disk.
//
// The crash invariant, which the above does not change: deferred writes land
// before the manifest that lists them. Every group commit first drains the
// queued file writes (each a temp file renamed into place, so no reader or
// crash ever sees a torn file) and only then renames the new manifest over
// the old, so a crash leaves a manifest that is stale but consistent — never
// one naming a file that was not written — and reopening detects staleness
// and rebuilds from the tree.
package results

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Store is the root of the results tree, the emulated
// /srv/testbed/results.
type Store struct {
	root    string
	durable bool

	// handles registers the live experiment handles, weakly.
	handles registry
}

// Option configures a Store.
type Option func(*Store)

// Durable makes every write fsync the file and its parent directory before
// the atomic rename publishes it — crash durability at a heavy syscall cost.
// Off by default (and in tests).
func Durable() Option { return func(s *Store) { s.durable = true } }

// ensureDir creates dir unless this handle already has, and reports whether
// this handle is the one that created it (a Mkdir that succeeded, not one
// that found the directory there). Unlike os.MkdirAll it never stat-walks the
// path: it tries a bare Mkdir and only recurses to the parent on ENOENT, so
// the per-artifact cost is zero syscalls for a memoized directory and one for
// a fresh leaf under an existing parent.
func (e *Experiment) ensureDir(dir string) (created bool, err error) {
	e.dirMu.Lock()
	defer e.dirMu.Unlock()
	return e.ensureDirLocked(dir)
}

func (e *Experiment) ensureDirLocked(dir string) (created bool, err error) {
	if created, ok := e.dirs[dir]; ok {
		return created, nil
	}
	err = os.Mkdir(dir, 0o755)
	if os.IsNotExist(err) {
		if _, perr := e.ensureDirLocked(filepath.Dir(dir)); perr != nil {
			return false, perr
		}
		err = os.Mkdir(dir, 0o755)
	}
	if err != nil && !os.IsExist(err) {
		return false, err
	}
	if e.dirs == nil {
		e.dirs = make(map[string]bool)
	}
	e.dirs[dir] = err == nil // else found there: by someone else
	return err == nil, nil
}

// forgetTree drops memoized directories at or below dir after the tree was
// removed, so a later write recreates them instead of failing.
func (e *Experiment) forgetTree(dir string) {
	prefix := dir + string(filepath.Separator)
	e.dirMu.Lock()
	defer e.dirMu.Unlock()
	for d := range e.dirs {
		if d == dir || strings.HasPrefix(d, prefix) {
			delete(e.dirs, d)
		}
	}
}

// lstatHook, when a test sets it, sees every path deferWrite asks the disk
// about.
var lstatHook func(path string)

// deferWrite queues op, the write of a file too small to deduplicate, behind
// the manifest flusher, overlapped with foreground payload writes, and
// records en. It reports false, having done neither, when path may be on disk
// already: overwrites of flushed files stay synchronous, because such a file
// must never serve stale bytes to readers between the rewrite and the next
// queue drain. (Re-queueing a path still in the queue is fine — mutateOp
// replaces the queued op, so the last write wins.) Whether path is on disk is
// the manifest's call in a directory this handle created, since nothing else
// writes there; in a directory that was already there the disk is asked.
func (e *Experiment) deferWrite(dir, path string, op func() error, en entry) (queued bool, err error) {
	created, err := e.ensureDir(dir)
	if err != nil {
		return false, fmt.Errorf("results: %w", err)
	}
	if !created {
		if lstatHook != nil {
			lstatHook(path)
		}
		if _, err := os.Lstat(path); err == nil || !errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
	}
	return e.mutateOp(path, op, en, created)
}

// putArtifact stores data at path, a file in dir, and records en:
// write-behind when the artifact is too small to deduplicate (the bytes are
// copied — the caller may reuse its buffer — and the queue's memory footprint
// stays bounded by backpressure × dedupMinBytes), else synchronously through
// the blob pool.
func (e *Experiment) putArtifact(dir, path string, data []byte, en entry) error {
	if len(data) < dedupMinBytes {
		buf := append([]byte(nil), data...)
		op := func() error { return e.store.writeFileAtomic(path, buf) }
		if queued, err := e.deferWrite(dir, path, op, en); queued || err != nil {
			return err
		}
	}
	err := e.writeInDir(dir, func() error { return e.store.writeFileDedup(path, data) })
	if err != nil {
		return err
	}
	return e.mutate(en)
}

// writeInDir runs one artifact write inside dir, creating dir on demand. If
// the memoized directory turns out to have been removed out-of-band, the
// memo is dropped and the write retried once against a fresh directory.
func (e *Experiment) writeInDir(dir string, write func() error) error {
	if _, err := e.ensureDir(dir); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	err := write()
	if err != nil && errors.Is(err, fs.ErrNotExist) {
		e.forgetTree(dir)
		if mkErr := os.MkdirAll(dir, 0o755); mkErr == nil {
			err = write()
		}
	}
	return err
}

// NewStore opens (creating if needed) a results tree rooted at dir. Orphaned
// temp files at the root (from a crashed writer) are swept; experiment
// directories are swept when opened.
func NewStore(dir string, opts ...Option) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	s := &Store{root: dir}
	for _, opt := range opts {
		opt(s)
	}
	sweepTmp(dir, false)
	return s, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// ControlDir returns (creating it if needed) a controller-state directory
// under the store root, namespaced like the index and blob pool (".pos"
// prefix, so it can never collide with a user tree). It holds durable
// control-plane state that is not experiment data — the campaign queue's
// journal lives in ControlDir("queue"). name must be a single flat path
// element.
func (s *Store) ControlDir(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, `/\`) || strings.Contains(name, "..") {
		return "", fmt.Errorf("results: bad control dir name %q", name)
	}
	dir := filepath.Join(s.root, ".pos"+name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("results: control dir: %w", err)
	}
	return dir, nil
}

// internalDirs are the store-level directories that hold the fast-path
// state. They sit next to the per-user trees and are never part of any
// experiment's published layout.
const (
	indexDirName = ".posindex"
	blobDirName  = ".posblob"
)

// Experiment is one experiment's result directory. One handle is the single
// writer of its manifest; handles are safe for concurrent use by multiple
// goroutines (replica testbeds of a campaign share one).
type Experiment struct {
	// mu guards the manifest (idx), the write-behind flusher state, and
	// the generation counter. File writes happen outside the lock; the
	// index mutation that records them happens under it.
	mu   sync.Mutex
	cond *sync.Cond

	store *Store
	dir   string
	user  string
	name  string
	id    string

	idx         *index
	pending     int            // manifest mutations not yet flushed to disk
	ops         []func() error // deferred small-file writes, drained by the flusher
	opIdx       map[string]int // queued op per target path; re-queue replaces (last wins)
	draining    map[string]int // opIdx of the batch the flusher is writing right now
	flushing    bool           // a flusher goroutine is active
	flushErr    error          // first flush failure, surfaced by Sync
	syncWaiters int            // Sync callers blocked; makes the flusher skip its window
	window      chan struct{}  // open while the flusher waits out a window; closing it ends the wait

	// dirs memoizes the directories this handle has asked for, and whether it
	// made them. Artifact ingest otherwise pays an os.MkdirAll stat-walk for
	// every single file.
	dirMu sync.Mutex
	dirs  map[string]bool
}

func (s *Store) newExperiment(dir, user, name, id string) *Experiment {
	e := &Experiment{store: s, dir: dir, user: user, name: name, id: id}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// checkSegments vets the user, experiment name and id that address an
// experiment directory: each must be one non-empty path element that does
// not start with a dot, so no request can reach outside the store root or
// into its internals (.posindex, .posblob, control dirs). The error wraps
// fs.ErrInvalid.
func checkSegments(segs ...string) error {
	for _, seg := range segs {
		if seg == "" || strings.HasPrefix(seg, ".") || strings.ContainsAny(seg, `/\`) {
			return fmt.Errorf("results: bad user, experiment or id %q: %w", seg, fs.ErrInvalid)
		}
	}
	return nil
}

// CreateExperiment allocates a fresh timestamped experiment directory. The
// timestamp format matches the paper's artifacts
// (e.g. 2020-10-12_11-20-32_230471).
func (s *Store) CreateExperiment(user, name string, at time.Time) (*Experiment, error) {
	if err := checkSegments(user, name); err != nil {
		return nil, err
	}
	id := at.Format("2006-01-02_15-04-05") + fmt.Sprintf("_%06d", at.Nanosecond()/1000)
	dir := filepath.Join(s.root, user, name, id)
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	// The leaf through ensureDir, so the handle knows whether it made the
	// experiment's directory itself.
	e := s.newExperiment(dir, user, name, id)
	if _, err := e.ensureDir(dir); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	e.idx = newIndex()
	s.register(handleKey(user, name, id), e, true)
	return e, nil
}

// OpenExperiment opens an existing experiment directory for evaluation. The
// manifest is loaded (or rebuilt from a tree scan) on first use; orphaned
// temp files from a crashed writer are swept.
func (s *Store) OpenExperiment(user, name, id string) (*Experiment, error) {
	if err := checkSegments(user, name, id); err != nil {
		return nil, err
	}
	key := handleKey(user, name, id)
	if live := s.liveHandle(key); live != nil {
		return live, nil
	}
	dir := filepath.Join(s.root, user, name, id)
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return nil, fmt.Errorf("results: experiment %s/%s/%s not found", user, name, id)
	}
	sweepTmp(dir, true)
	return s.register(key, s.newExperiment(dir, user, name, id), false), nil
}

// ListExperiments returns the IDs recorded for user/name, sorted ascending
// (timestamps sort chronologically).
func (s *Store) ListExperiments(user, name string) ([]string, error) {
	if err := checkSegments(user, name); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(filepath.Join(s.root, user, name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("results: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Prune deletes all but the newest keep executions of user/name, returning
// the removed ids. Retention by count matches how shared testbeds manage
// their result volumes; the newest executions (lexically greatest ids —
// timestamps sort chronologically) survive. Deduplicated blobs that lose
// their last reference are reclaimed by GCBlobs.
func (s *Store) Prune(user, name string, keep int) ([]string, error) {
	if keep < 0 {
		return nil, fmt.Errorf("results: keep must be >= 0")
	}
	ids, err := s.ListExperiments(user, name)
	if err != nil {
		return nil, err
	}
	if len(ids) <= keep {
		return nil, nil
	}
	victims := ids[:len(ids)-keep]
	for _, id := range victims {
		dir := filepath.Join(s.root, user, name, id)
		key := handleKey(user, name, id)
		// A live handle first drains what it still owes the tree, so nothing
		// is written, or a manifest published, behind the removal.
		if live := s.liveHandle(key); live != nil {
			_ = live.Sync() // a failed flush leaves nothing worth keeping here
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, fmt.Errorf("results: pruning %s: %w", id, err)
		}
		if live := s.dropHandle(key); live != nil {
			live.forgetTree(dir)
		}
		os.Remove(s.indexPath(user, name, id))
	}
	return append([]string(nil), victims...), nil
}

// Dir returns the experiment's directory.
func (e *Experiment) Dir() string { return e.dir }

// ID returns the experiment's timestamp identifier.
func (e *Experiment) ID() string { return e.id }

// RunMeta is the metadata pos records for every measurement run: which loop
// parameter combination the run executed.
type RunMeta struct {
	Run        int               `json:"run"`
	LoopVars   map[string]string `json:"loop_vars"`
	StartedAt  time.Time         `json:"started_at"`
	FinishedAt time.Time         `json:"finished_at"`
	// Failed marks runs whose measurement script exited non-zero.
	Failed bool `json:"failed,omitempty"`
	// Error carries the failure reason for failed runs.
	Error string `json:"error,omitempty"`
}

// clone returns a defensive copy (the LoopVars map is shared state
// otherwise — the manifest keeps its own copy).
func (m RunMeta) clone() RunMeta {
	if m.LoopVars != nil {
		vars := make(map[string]string, len(m.LoopVars))
		for k, v := range m.LoopVars {
			vars[k] = v
		}
		m.LoopVars = vars
	}
	return m
}

// writeFile writes the metadata as its run's metadata.json: the manifest's
// own encoding of it (appendJSON), indented by two spaces, and a newline.
func (m *RunMeta) writeFile(w *bufio.Writer) error {
	compact, err := m.appendJSON(make([]byte, 0, 256))
	if err != nil {
		return err
	}
	var out bytes.Buffer
	if err := json.Indent(&out, compact, "", "  "); err != nil {
		return err
	}
	out.WriteByte('\n')
	_, err = w.Write(out.Bytes())
	return err
}

func runDirName(run int) string { return string(appendRunDir(nil, run)) }

// appendRunDir appends run_NNNN: the run number zero-padded to at least four
// digits, fmt's %04d.
func appendRunDir(dst []byte, run int) []byte {
	if run < 0 {
		return fmt.Appendf(dst, "run_%04d", run)
	}
	dst = append(dst, "run_"...)
	for limit := 1000; limit > 1 && run < limit; limit /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(run), 10)
}

// runFile returns the path of a file of one run, rel being its slash path
// below the run directory, and the directory that holds it. rel has passed
// validateArtifactName (or is a reserved name), so joining needs no cleaning.
func (e *Experiment) runFile(run int, rel string) (dir, path string) {
	var stack [192]byte
	buf := append(stack[:0], e.dir...)
	buf = append(buf, filepath.Separator)
	buf = appendRunDir(buf, run)
	buf = append(buf, filepath.Separator)
	buf = append(buf, filepath.FromSlash(rel)...)
	path = string(buf)
	return path[:len(path)-len(filepath.Base(path))-1], path
}

// parseRunDir strictly parses a run directory name. Only names that
// round-trip through runDirName are accepted, so stragglers like
// "run_0001.bak", "run_001", or "run_+0001" never surface as runs.
func parseRunDir(name string) (int, bool) {
	digits, ok := strings.CutPrefix(name, "run_")
	if !ok || len(digits) < 4 {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 0 || runDirName(n) != name {
		return 0, false
	}
	return n, true
}

// validateArtifactName is the shared sanitizer for artifact and node names.
// flat names (per-run artifacts, node names) must be a single path element;
// nested names (experiment artifacts) may contain forward slashes but no
// empty, dot, or dot-dot segments. Temp-file prefixes are reserved for the
// store's own atomic writes.
func validateArtifactName(name string, flat bool) error {
	if name == "" {
		return fmt.Errorf("results: artifact name must not be empty")
	}
	if strings.ContainsRune(name, '\\') {
		return fmt.Errorf("results: artifact name %q must use forward slashes", name)
	}
	if strings.HasPrefix(name, "/") {
		return fmt.Errorf("results: artifact path %q must be relative", name)
	}
	if flat && strings.ContainsRune(name, '/') {
		return fmt.Errorf("results: artifact and node names must be flat (%q)", name)
	}
	for rest, more := name, true; more; {
		var seg string
		seg, rest, more = strings.Cut(rest, "/")
		switch {
		case seg == "" || seg == "." || seg == "..":
			return fmt.Errorf("results: artifact path %q escapes the experiment", name)
		case strings.HasPrefix(seg, tmpPrefix):
			return fmt.Errorf("results: artifact path %q uses the reserved temp prefix", name)
		}
	}
	return nil
}

// WriteRunMeta stores the metadata file of one run. The write is atomic on
// disk and recorded in the manifest write-behind; rewriting a run's metadata
// bumps the experiment generation, invalidating warm eval caches.
func (e *Experiment) WriteRunMeta(meta RunMeta) error {
	dir, path := e.runFile(meta.Run, "metadata.json")
	stored := meta.clone()
	writeMeta := func() error { return e.store.writeFileStream(path, stored.writeFile) }
	// The metadata is authoritative in the manifest the moment
	// deferWrite returns; the small disk file rides the write-behind queue.
	en := entry{run: meta.Run, meta: &stored}
	if queued, err := e.deferWrite(dir, path, writeMeta, en); queued || err != nil {
		return err
	}
	if err := e.writeInDir(dir, writeMeta); err != nil {
		return err
	}
	return e.mutate(en)
}

// ReadRunMeta loads one run's metadata, served from the manifest when the
// run was recorded through this store.
func (e *Experiment) ReadRunMeta(run int) (RunMeta, error) {
	if meta, ok := e.metaFromIndex(run); ok {
		return meta, nil
	}
	data, err := os.ReadFile(filepath.Join(e.dir, runDirName(run), "metadata.json"))
	if err != nil {
		return RunMeta{}, fmt.Errorf("results: %w", err)
	}
	var meta RunMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return RunMeta{}, fmt.Errorf("results: run %d metadata: %w", run, err)
	}
	return meta, nil
}

func (e *Experiment) metaFromIndex(run int) (RunMeta, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.ensureIndexLocked(); err != nil {
		return RunMeta{}, false
	}
	entry := e.idx.runs[run]
	if entry == nil || !entry.hasMeta {
		return RunMeta{}, false
	}
	return entry.meta.clone(), true
}

// AddRunArtifact stores one artifact produced during a run by a node, e.g.
// the captured MoonGen log. Identical content already present anywhere in
// the store is deduplicated: the run's file becomes a hardlink to the shared
// blob, keeping the visible layout byte-identical at a fraction of the IO.
func (e *Experiment) AddRunArtifact(run int, nodeName, artifact string, data []byte) error {
	if err := validateArtifactName(nodeName, true); err != nil {
		return err
	}
	if err := validateArtifactName(artifact, true); err != nil {
		return err
	}
	rel := nodeName + "/" + artifact
	dir, path := e.runFile(run, rel)
	return e.putArtifact(dir, path, data, entry{run: run, rel: rel})
}

// resourcesName is the run-level host-conditions record (telemetry
// RuntimeDelta JSON) archived by the runner next to metadata.json. Like
// metadata.json it is a reserved file, not a node artifact, and is excluded
// from RunArtifacts listings.
const resourcesName = "resources.json"

// WriteRunResources stores one run's host-conditions record (resources.json)
// next to its metadata. The write rides the manifest write-behind like any
// small artifact.
func (e *Experiment) WriteRunResources(run int, data []byte) error {
	dir, path := e.runFile(run, resourcesName)
	return e.putArtifact(dir, path, data, entry{run: run, rel: resourcesName})
}

// ReadRunArtifact loads one artifact back.
func (e *Experiment) ReadRunArtifact(run int, nodeName, artifact string) ([]byte, error) {
	data, err := e.readBack(filepath.Join(e.dir, runDirName(run), nodeName, artifact))
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	return data, nil
}

// readBack reads an artifact file, draining the write-behind queue once when
// the file is not there yet — a handle must always see its own writes.
func (e *Experiment) readBack(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil && errors.Is(err, fs.ErrNotExist) {
		if serr := e.Sync(); serr == nil {
			data, err = os.ReadFile(path)
		}
	}
	return data, err
}

// AddExperimentArtifact stores an experiment-wide artifact (the experiment
// script, variable files, topology dump, hardware info, generated plots).
// Content is deduplicated against the store's blob pool like run artifacts.
func (e *Experiment) AddExperimentArtifact(artifact string, data []byte) error {
	if err := validateArtifactName(artifact, false); err != nil {
		return err
	}
	path := filepath.Join(e.dir, filepath.FromSlash(artifact))
	return e.putArtifact(filepath.Dir(path), path, data, entry{rel: artifact, exp: true})
}

// ReadExperimentArtifact loads an experiment-wide artifact.
func (e *Experiment) ReadExperimentArtifact(artifact string) ([]byte, error) {
	data, err := e.readBack(filepath.Join(e.dir, artifact))
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	return data, nil
}

// Runs lists the run indices present, sorted — a read of the manifest.
func (e *Experiment) Runs() ([]int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.ensureIndexLocked(); err != nil {
		return nil, err
	}
	runs := make([]int, 0, len(e.idx.runs))
	for run := range e.idx.runs {
		runs = append(runs, run)
	}
	sort.Ints(runs)
	if len(runs) == 0 {
		return nil, nil
	}
	return runs, nil
}

// RunArtifacts lists "<node>/<artifact>" paths for one run, sorted.
func (e *Experiment) RunArtifacts(run int) ([]string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.ensureIndexLocked(); err != nil {
		return nil, err
	}
	entry := e.idx.runs[run]
	if entry == nil {
		return nil, fmt.Errorf("results: run %d not recorded", run)
	}
	out := make([]string, 0, len(entry.artifacts))
	for rel := range entry.artifacts {
		if filepath.Base(rel) == "metadata.json" || rel == resourcesName {
			continue
		}
		out = append(out, rel)
	}
	sort.Strings(out)
	return out, nil
}
