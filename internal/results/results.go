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
//     experiment's handle and written by Sync, so enumerating runs and
//     artifacts never walks the tree again;
//   - runs committed whole (see stage.go): a run's files are staged until
//     its metadata is written, then its directory appears by one rename;
//   - content-addressed blob storage (see blob.go) that deduplicates
//     identical artifacts — a 60-run sweep writes each repeated script or
//     variable file once and hardlinks it into every run;
//   - a generation counter per experiment that downstream caches (eval)
//     use for invalidation.
//
// The manifest and the pool live outside the experiment directories
// (<root>/.posindex, <root>/.posblob), so the on-disk experiment layout stays
// byte-identical to the paper's artifacts.
//
// Three invariants hold it together.
//
// The one-handle invariant: while anything can still use an experiment's
// handle, every open of that experiment through the same store returns that
// handle, so a manifest has one writer and readers see its in-memory state.
// The store registers handles weakly (see registry.go): a handle is pinned by
// whoever holds it, by its store while it has writes not yet synced, and by
// the store's fixed ring of recently used handles; past that it is garbage,
// manifest and all, and the next open reloads it from .posindex. A store that
// runs for months holds the experiments in use, not its history.
//
// The fresh-directory invariant: a directory the handle made (a Mkdir that
// succeeded) holds only what the handle wrote. So the handle stages the runs
// of an experiment it created, asking the disk once per run whether its
// run_NNNN is there. A run directory found there, a run committed already
// and every run of an experiment it opened take the per-file path instead:
// a temp file renamed over the final name before the call returns, so a
// reader never gets bytes older than the last write. A handle with runs still
// staged is held by its store until Sync commits them; a process that dies
// first loses them, as any crash does.
//
// The crash invariant: a run_NNNN/ is absent or holds every file recorded
// for it when it committed, and no manifest names a file that is not on
// disk. A run commits in the WriteRunMeta that closes it, on the caller's
// goroutine; Sync commits the runs still staged, and only then encodes the
// manifest and renames it over the old one. A crash leaves a manifest that
// is stale but consistent, which reopening detects and rebuilds from the
// tree, and staging directories and temp files, which opening sweeps.
package results

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pos/internal/jsonenc"
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

// putFile stores data at path, a file in dir, synchronously through the
// blob pool, and records it in the manifest.
func (e *Experiment) putFile(dir, path string, data []byte, record func(*index)) error {
	if err := mkdirAll(dir); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	if err := e.store.writeFileDedup(path, data); err != nil {
		return err
	}
	return e.mutate(record)
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
	// mu guards the manifest (idx), the staged runs and their commits, and
	// the generation counter. Per-file writes happen outside the lock; the
	// index mutation that records them happens under it.
	mu sync.Mutex

	store *Store
	dir   string
	user  string
	name  string
	id    string
	// fresh says this handle made the experiment directory: its runs are
	// staged and committed whole (see stage.go).
	fresh bool

	idx    *index
	dirty  bool               // the manifest changed since Sync last wrote it
	staged map[int]*stagedRun // runs not yet committed
}

func (s *Store) newExperiment(dir, user, name, id string) *Experiment {
	return &Experiment{store: s, dir: dir, user: user, name: name, id: id}
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
	err := mkdirAll(filepath.Dir(dir))
	if err == nil {
		// The leaf alone, so the handle knows whether it made the
		// experiment's directory itself.
		err = mkdir(dir)
	}
	if err != nil && !os.IsExist(err) {
		return nil, fmt.Errorf("results: %w", err)
	}
	e := s.newExperiment(dir, user, name, id)
	e.fresh = err == nil && stagingSupported
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

// LoopKey returns the canonical form of a run's loop combination: its
// "name=value" pairs sorted by name and joined by commas, as in
// "pkt_rate=10000,pkt_sz=64". It is the one spelling of a combination that
// run events, latency series and the publish checker share.
func LoopKey(vars map[string]string) string {
	var stack [8]string
	keys := stack[:0]
	for k := range vars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	n := 0
	for _, k := range keys {
		n += len(k) + len(vars[k]) + 2
	}
	var b strings.Builder
	b.Grow(n)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(vars[k])
	}
	return b.String()
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

// appendFile appends the metadata as its run's metadata.json: the manifest's
// own encoding of it (appendJSON), indented by two spaces, and a newline.
func (m *RunMeta) appendFile(dst []byte) ([]byte, error) {
	b, err := m.appendJSON(dst, true)
	return append(b, '\n'), err
}

// DecodeRunMeta decodes the metadata of one run as metadata.json and the
// manifest carry it. What it accepts json.Unmarshal into a RunMeta accepts
// too, with the same value; it refuses a key not spelt as RunMeta's tags
// spell it, a key given twice, and a null member but loop_vars (metadata
// without loop variables is written with "loop_vars": null).
func DecodeRunMeta(data []byte) (RunMeta, error) {
	var m RunMeta
	d := jsonenc.NewDecoder(data)
	for d.Next() {
		switch string(d.Key()) {
		case "run":
			m.Run = int(d.ReadInt())
		case "loop_vars":
			if !d.Null() {
				m.LoopVars = d.ReadStringMap()
			}
		case "started_at":
			m.StartedAt = d.ReadTime()
		case "finished_at":
			m.FinishedAt = d.ReadTime()
		case "failed":
			m.Failed = d.ReadBool()
		case "error":
			m.Error = d.ReadString()
		default:
			d.Unknown()
		}
	}
	if err := d.Err(); err != nil {
		return RunMeta{}, err
	}
	return m, nil
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

// runDir returns the path of run's directory.
func (e *Experiment) runDir(run int) string {
	var stack [192]byte
	buf := append(stack[:0], e.dir...)
	buf = append(buf, filepath.Separator)
	return string(appendRunDir(buf, run))
}

// runFile returns the path of a file of one run, rel being its slash path
// below the run directory, and the directory that holds it.
func (e *Experiment) runFile(run int, rel string) (dir, path string) {
	path = filepath.Join(e.runDir(run), filepath.FromSlash(rel))
	return filepath.Dir(path), path
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

// WriteRunMeta stores the metadata file of one run and, for a staged run,
// commits it before it returns: the run's directory appears with every file
// recorded for it, or, when the commit fails, not at all, and the error is
// this call's. Rewriting a run's metadata bumps the experiment generation,
// invalidating warm eval caches.
func (e *Experiment) WriteRunMeta(meta RunMeta) error {
	stored := meta.clone()
	if staged, err := e.stage(meta.Run, "", nil, &stored); staged || err != nil {
		return err
	}
	data, err := stored.appendFile(nil)
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	dir, path := e.runFile(meta.Run, "metadata.json")
	return e.putFile(dir, path, data, func(idx *index) { idx.setMeta(stored) })
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
	meta, err := DecodeRunMeta(data)
	if err != nil {
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
	return e.putRunFile(run, nodeName+"/"+artifact, data)
}

// putRunFile stages a file of run, or writes it through the per-file path.
func (e *Experiment) putRunFile(run int, rel string, data []byte) error {
	if staged, err := e.stage(run, rel, data, nil); staged || err != nil {
		return err
	}
	dir, path := e.runFile(run, rel)
	return e.putFile(dir, path, data, func(idx *index) { idx.addRunArtifact(run, rel) })
}

// resourcesName is the run-level host-conditions record (telemetry
// RuntimeDelta JSON) archived by the runner next to metadata.json. Like
// metadata.json it is a reserved file, not a node artifact, and is excluded
// from RunArtifacts listings.
const resourcesName = "resources.json"

// WriteRunResources stores one run's host-conditions record (resources.json)
// next to its metadata. The runner writes it before the metadata, so it
// commits with the run.
func (e *Experiment) WriteRunResources(run int, data []byte) error {
	return e.putRunFile(run, resourcesName, data)
}

// ReadRunArtifact loads one artifact back. A handle reads its own writes: a
// file of a run still staged comes from memory or the staging directory.
func (e *Experiment) ReadRunArtifact(run int, nodeName, artifact string) ([]byte, error) {
	data, staged, err := e.readStaged(run, nodeName, artifact)
	if !staged {
		data, err = os.ReadFile(filepath.Join(e.dir, runDirName(run), nodeName, artifact))
	}
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	return data, nil
}

// AddExperimentArtifact stores an experiment-wide artifact (the experiment
// script, variable files, topology dump, hardware info, generated plots).
// Content is deduplicated against the store's blob pool like run artifacts.
func (e *Experiment) AddExperimentArtifact(artifact string, data []byte) error {
	if err := validateArtifactName(artifact, false); err != nil {
		return err
	}
	path := filepath.Join(e.dir, filepath.FromSlash(artifact))
	return e.putFile(filepath.Dir(path), path, data, func(idx *index) { idx.addExperimentArtifact(artifact) })
}

// ReadExperimentArtifact loads an experiment-wide artifact.
func (e *Experiment) ReadExperimentArtifact(artifact string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(e.dir, artifact))
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
