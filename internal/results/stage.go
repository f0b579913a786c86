package results

import (
	"cmp"
	"errors"
	"io/fs"
	"os"
	"slices"
	"strings"
	"syscall"
)

// stagedRun is one run of a fresh experiment between its first file and its
// commit: files under dedupMinBytes in memory on the handle, larger ones at
// once in the run's staging directory <exp>/.tmp-N/<node>/. WriteRunMeta
// commits it before it returns: it writes the buffered files and
// metadata.json into the staging directory and renames it to run_NNNN. Its
// fields are guarded by the handle's mu, which the commit holds too.
type stagedRun struct {
	run     int
	runDir  string // <exp>/run_NNNN
	dir     string // the staging directory; "" until a large file or the commit makes it
	meta    *RunMeta
	files   []stagedFile
	buf     []byte   // the small files' bytes, end to end
	nodes   []string // node directories made in dir
	fileBuf [8]stagedFile
	nodeBuf [4]string
}

type stagedFile struct {
	rel    string
	off, n int  // a small file's bytes in buf
	inDir  bool // the file is in the staging directory instead
}

// stageLocked returns the staged run a write to run joins, staging the run
// on its first write, or nil when the write takes the per-file path: the run
// was written already (a rewrite), or run_NNNN is there without the handle
// having made it. Caller holds e.mu.
func (e *Experiment) stageLocked(run int) *stagedRun {
	if st := e.staged[run]; st != nil {
		return st
	}
	if _, seen := e.idx.runs[run]; seen {
		return nil
	}
	runDir := e.runDir(run)
	err := at("lstat", runDir, func() error { var st syscall.Stat_t; return syscall.Lstat(runDir, &st) })
	if !errors.Is(err, fs.ErrNotExist) {
		return nil // there, or unknowable: the disk is not the handle's alone
	}
	st := &stagedRun{run: run, runDir: runDir}
	st.files, st.nodes = st.fileBuf[:0], st.nodeBuf[:0]
	if e.staged == nil {
		e.staged = make(map[int]*stagedRun)
	}
	e.staged[run] = st
	e.idx.run(run)
	return st
}

// stage records a file of run (rel and data) in the run's staging, or its
// metadata (meta) and commits the run, reporting false when the write takes
// the per-file path: always, in an experiment the handle did not create.
func (e *Experiment) stage(run int, rel string, data []byte, meta *RunMeta) (bool, error) {
	if !e.fresh {
		return false, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stageLocked(run)
	if st == nil {
		return false, nil
	}
	if meta != nil {
		st.meta = meta
		e.idx.setMeta(*meta)
	} else if err := e.put(st, rel, data); err != nil {
		return true, err
	}
	e.idx.gen++
	e.dirtyLocked()
	if meta != nil {
		return true, e.commitLocked(st)
	}
	return true, nil
}

// put stages data as the file rel, and records it: its bytes into buf when
// it is small, else into the staging directory, replacing any earlier
// version. A file put fails to stage is not staged or recorded at all,
// earlier version included.
func (e *Experiment) put(st *stagedRun, rel string, data []byte) error {
	i := slices.IndexFunc(st.files, func(f stagedFile) bool { return f.rel == rel })
	if i < 0 {
		i = len(st.files)
		st.files = append(st.files, stagedFile{rel: rel})
	}
	f := &st.files[i]
	if f.inDir || len(data) >= dedupMinBytes {
		if err := e.putInDir(st, f, data); err != nil {
			st.files = slices.Delete(st.files, i, i+1)
			delete(e.idx.runs[st.run].artifacts, rel)
			return err
		}
	}
	if !f.inDir {
		if st.buf == nil {
			st.buf = make([]byte, 0, max(1024, 4*len(data)))
		}
		f.off, f.n = len(st.buf), len(data)
		st.buf = append(st.buf, data...)
	}
	e.idx.addRunArtifact(st.run, rel)
	return nil
}

// putInDir removes f from the staging directory and, when data is large,
// places data there as f: a link from the blob pool, or written and linked
// into it.
func (e *Experiment) putInDir(st *stagedRun, f *stagedFile, data []byte) error {
	d, err := st.open(e.dir)
	if err != nil {
		return err
	}
	defer d.close()
	path := st.dir + string(os.PathSeparator) + f.rel
	if f.inDir {
		if err := os.Remove(path); err != nil {
			return err
		}
		f.inDir = false
	}
	if len(data) < dedupMinBytes {
		return nil
	}
	if err := st.mkNode(d, f.rel); err != nil {
		return err
	}
	if err := e.store.placeBlob(d, f.rel, path, data); err != nil {
		st.dropNode(f.rel)
		return err
	}
	f.inDir = true
	return nil
}

// open opens the staging directory in expDir, making it on first use. The
// experiment directory is the handle's own, so the next temp name is free.
func (st *stagedRun) open(expDir string) (dirFile, error) {
	if st.dir == "" {
		var stack [192]byte
		dir := string(appendTmpName(stack[:0], expDir))
		if err := mkdir(dir); err != nil {
			return -1, err
		}
		st.dir = dir
	}
	return openDir(st.dir)
}

// mkNode makes the node directory rel lives in, unless it is made already.
func (st *stagedRun) mkNode(d dirFile, rel string) error {
	node, _, nested := strings.Cut(rel, "/")
	if !nested || slices.Contains(st.nodes, node) {
		return nil
	}
	if err := d.mkdir(node); err != nil {
		return err
	}
	st.nodes = append(st.nodes, node)
	return nil
}

// dropNode removes the node directory of rel, a file that failed to place,
// when no file is left in it: a run never commits an empty node directory.
// A small file of the node makes it again at commit.
func (st *stagedRun) dropNode(rel string) {
	node, _, _ := strings.Cut(rel, "/")
	if i := slices.Index(st.nodes, node); i >= 0 && os.Remove(st.dir+string(os.PathSeparator)+node) == nil {
		st.nodes = slices.Delete(st.nodes, i, i+1)
	}
}

// commitStagedLocked commits every run still staged, in run order, and
// returns the first error. Caller holds e.mu.
func (e *Experiment) commitStagedLocked() (first error) {
	runs := make([]int, 0, len(e.staged))
	for run := range e.staged {
		runs = append(runs, run)
	}
	slices.Sort(runs)
	for _, run := range runs {
		first = cmp.Or(first, e.commitLocked(e.staged[run]))
	}
	return first
}

// commitLocked commits st and forgets it as staged. A run that fails to
// commit, or has nothing to commit (its every write failed), leaves no
// directory behind and is dropped from the manifest: nothing may name files
// that are not on disk. Caller holds e.mu.
func (e *Experiment) commitLocked(st *stagedRun) error {
	var err error
	empty := len(st.files) == 0 && st.meta == nil
	if !empty {
		err = e.commit(st)
	}
	if (err != nil || empty) && st.dir != "" {
		os.RemoveAll(st.dir)
	}
	delete(e.staged, st.run)
	if err != nil || empty {
		delete(e.idx.runs, st.run)
		e.idx.gen++
	}
	return err
}

// commit writes the staged run to disk as run_NNNN: the buffered files and
// metadata.json into the staging directory, each created, written and closed
// relative to the one directory descriptor, then one rename. Under Durable,
// the files, the node directories and the staging directory are fsynced
// before the rename, the experiment directory after it.
func (e *Experiment) commit(st *stagedRun) error {
	durable := e.store.durable
	d, err := st.open(e.dir)
	if err != nil {
		return err
	}
	defer d.close()
	for _, f := range st.files {
		if f.inDir {
			continue
		}
		if err := st.mkNode(d, f.rel); err != nil {
			return err
		}
		if err := d.create(f.rel, st.buf[f.off:f.off+f.n], durable); err != nil {
			return err
		}
	}
	if st.meta != nil {
		var stack [512]byte
		b, err := st.meta.appendFile(stack[:0])
		if err == nil {
			err = d.create("metadata.json", b, durable)
		}
		if err != nil {
			return err
		}
	}
	if durable {
		for _, node := range append(st.nodes, ".") {
			if err := d.sync(node); err != nil {
				return err
			}
		}
	}
	return e.store.publish(st.dir, st.runDir)
}

// readStaged serves a read of a file of run while the run is staged, from
// memory or the staging directory. staged is false when the run is not: the
// disk has the answer.
func (e *Experiment) readStaged(run int, node, artifact string) (data []byte, staged bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.staged[run]
	if st == nil {
		return nil, false, nil
	}
	rel := node + "/" + artifact
	i := slices.IndexFunc(st.files, func(f stagedFile) bool { return f.rel == rel })
	switch {
	case i < 0:
		return nil, true, &os.PathError{Op: "open", Path: rel, Err: fs.ErrNotExist}
	case st.files[i].inDir:
		data, err = os.ReadFile(st.dir + string(os.PathSeparator) + rel)
		return data, true, err
	}
	f := st.files[i]
	return append([]byte(nil), st.buf[f.off:f.off+f.n]...), true, nil
}
