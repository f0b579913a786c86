package results

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
)

// tmpPrefix names the store's in-flight temp files and run staging
// directories. Writers publish by renaming one over the final path; anything
// still carrying the prefix after a crash is an orphan and gets swept on open.
const tmpPrefix = ".tmp-"

// fsHook, when a test sets it, is called before each file system call of the
// store's write path — op is "lstat", "mkdir", "create", "write", "link",
// "sync", "rename" or "dirsync" — with the path it is made on (a rename's
// target; relative to the staging directory for calls made in one). An error
// it returns fails the call.
var fsHook func(op, path string) error

func hook(op, path string) error {
	if fsHook == nil {
		return nil
	}
	return fsHook(op, path)
}

// tmpSeq numbers the process's temp files, link staging names and run
// staging directories.
var tmpSeq atomic.Uint64

// appendTmpName appends dir's next temp name.
func appendTmpName(dst []byte, dir string) []byte {
	dst = append(dst, dir...)
	dst = append(dst, filepath.Separator)
	dst = append(dst, tmpPrefix...)
	return strconv.AppendUint(dst, tmpSeq.Add(1), 10)
}

// createTmp opens a new temp file in dir, as os.CreateTemp does (exclusive
// create, mode 0600), named from tmpSeq instead of a random source. A name
// another process or a crashed writer left behind is skipped.
func createTmp(dir string) (*os.File, error) {
	if err := hook("create", dir); err != nil {
		return nil, err
	}
	var stack [192]byte
	for {
		name := appendTmpName(stack[:0], dir)
		f, err := os.OpenFile(string(name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
		if !os.IsExist(err) {
			return f, err
		}
	}
}

// writeFileAtomic writes via a temp file + rename so readers never observe
// a torn result file. When blob is not "", the temp file is linked into the
// blob pool as blob before the rename, so the data hits the disk once. With
// the store in durable mode, the file and its parent directory are fsynced
// before and after the rename.
func (s *Store) writeFileAtomic(path string, data []byte, blob string) error {
	tmp, err := createTmp(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	tmpName := tmp.Name()
	err = at("write", path, func() error { _, err := tmp.Write(data); return err })
	if err == nil && s.durable {
		err = at("sync", path, tmp.Sync)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("results: %w", err)
	}
	if blob != "" {
		intoPool(blob, func() error { return link(tmpName, blob) })
	}
	return s.publish(tmpName, path)
}

// publish atomically moves a prepared temp file, or a run's staging
// directory, to its final path, syncing the parent directory in durable mode
// so the rename itself survives a crash.
func (s *Store) publish(tmpName, path string) error {
	// rename(2) itself, not os.Rename, which first stats the target to turn
	// "is a directory" into a friendlier error: the kernel refuses that
	// rename anyway, and the stat would be one more syscall per rename.
	err := hook("rename", path)
	if err == nil {
		err = syscall.Rename(tmpName, path)
		for err == syscall.EINTR {
			err = syscall.Rename(tmpName, path)
		}
	}
	if err != nil {
		os.RemoveAll(tmpName)
		return fmt.Errorf("results: %w", &os.LinkError{Op: "rename", Old: tmpName, New: path, Err: err})
	}
	if s.durable {
		return syncDir(filepath.Dir(path))
	}
	return nil
}

func syncDir(dir string) error {
	err := at("dirsync", dir, func() error {
		d, err := os.Open(dir)
		if err == nil {
			err = d.Sync()
			d.Close()
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	return nil
}

// at makes call, a file system call on path, unless the hook fails it.
func at(op, path string, call func() error) error {
	if err := hook(op, path); err != nil {
		return err
	}
	return call()
}

func mkdir(dir string) error { return at("mkdir", dir, func() error { return os.Mkdir(dir, 0o755) }) }
func mkdirAll(dir string) error {
	return at("mkdir", dir, func() error { return os.MkdirAll(dir, 0o755) })
}
func link(from, to string) error { return at("link", to, func() error { return os.Link(from, to) }) }

// sweepTmp removes orphaned temp files and staging directories left behind
// by a crashed writer. Shallow sweeps cover a directory's own entries;
// recursive sweeps descend (used when opening a single experiment, where the
// tree is bounded).
func sweepTmp(dir string, recursive bool) {
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil || path == dir:
			return nil // best-effort: a vanished entry is already gone
		case strings.HasPrefix(d.Name(), tmpPrefix):
			os.RemoveAll(path)
		case recursive || !d.IsDir():
			return nil
		}
		if d.IsDir() {
			return filepath.SkipDir
		}
		return nil
	})
}

// dirFile is a directory opened for the *at calls that fill a run's staging
// directory, so a file there costs no path of its own. Its errors name the
// call and its path.
type dirFile int

func openDir(dir string) (dirFile, error) {
	fd, err := syscall.Open(dir, syscall.O_RDONLY|syscall.O_DIRECTORY|syscall.O_CLOEXEC, 0)
	return dirFile(fd), pathErr("open", dir, err)
}

func (d dirFile) close() { syscall.Close(int(d)) }

func pathErr(op, path string, err error) error {
	if err == nil {
		return nil
	}
	return &os.PathError{Op: op, Path: path, Err: err}
}

func (d dirFile) mkdir(rel string) error {
	return pathErr("mkdir", rel, at("mkdir", rel, func() error { return mkdirat(int(d), rel) }))
}

// create writes data as the new file rel (exclusive create, mode 0600, as
// the store's temp files are made), fsynced when durable.
func (d dirFile) create(rel string, data []byte, durable bool) error {
	fd := -1
	err := at("create", rel, func() (err error) {
		fd, err = openat(int(d), rel, syscall.O_WRONLY|syscall.O_CREAT|syscall.O_EXCL|syscall.O_CLOEXEC, 0o600)
		return err
	})
	if err == nil {
		err = at("write", rel, func() (err error) {
			for n := 0; len(data) > 0 && (err == nil || err == syscall.EINTR); data = data[max(n, 0):] {
				n, err = syscall.Write(fd, data)
			}
			return err
		})
		if err == nil && durable {
			err = at("sync", rel, func() error { return syscall.Fsync(fd) })
		}
		if cerr := syscall.Close(fd); err == nil {
			err = cerr
		}
	}
	return pathErr("create", rel, err)
}

// sync fsyncs the subdirectory rel, or d itself when rel is ".".
func (d dirFile) sync(rel string) error {
	return pathErr("fsync", rel, at("dirsync", rel, func() error {
		fd, err := openat(int(d), rel, syscall.O_RDONLY|syscall.O_DIRECTORY|syscall.O_CLOEXEC, 0)
		if err == nil {
			err = syscall.Fsync(fd)
			syscall.Close(fd)
		}
		return err
	}))
}
