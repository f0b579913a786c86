package results

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// tmpPrefix names the store's in-flight temp files. Writers publish by
// renaming a temp file over the final path; anything still carrying the
// prefix after a crash is an orphan and gets swept on open.
const tmpPrefix = ".tmp-"

// bufWriterPool recycles the buffered writers of the streamed-JSON ingest
// path, so per-run metadata writes stop allocating a fresh 4 KiB buffer
// each time.
var bufWriterPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(nil, 16<<10) },
}

// tmpSeq numbers the process's temp files and link staging names.
var tmpSeq atomic.Uint64

// createTmp opens a new temp file in dir, as os.CreateTemp does (exclusive
// create, mode 0600), named from tmpSeq instead of a random source. A name
// another process or a crashed writer left behind is skipped.
func createTmp(dir string) (*os.File, error) {
	var stack [192]byte
	for {
		name := append(stack[:0], dir...)
		name = append(name, filepath.Separator)
		name = append(name, tmpPrefix...)
		name = strconv.AppendUint(name, tmpSeq.Add(1), 10)
		f, err := os.OpenFile(string(name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
		if !os.IsExist(err) {
			return f, err
		}
	}
}

// writeFileAtomic writes via a temp file + rename so readers never observe
// a torn result file. With the store in durable mode, the file and its
// parent directory are fsynced before and after the rename.
func (s *Store) writeFileAtomic(path string, data []byte) error {
	return s.writeFileStream(path, func(w *bufio.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// writeFileStream is writeFileAtomic with the content streamed into a
// pooled buffered writer — the ingest fast path for encoded JSON, which
// avoids materializing an intermediate byte slice per record.
func (s *Store) writeFileStream(path string, write func(w *bufio.Writer) error) error {
	tmp, err := createTmp(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	tmpName := tmp.Name()
	bw := bufWriterPool.Get().(*bufio.Writer)
	bw.Reset(tmp)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	bw.Reset(nil)
	bufWriterPool.Put(bw)
	if err == nil && s.durable {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("results: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("results: %w", err)
	}
	return s.publish(tmpName, path)
}

// publish atomically moves a prepared temp file to its final path, syncing
// the parent directory in durable mode so the rename itself survives a
// crash.
func (s *Store) publish(tmpName, path string) error {
	// rename(2) itself, not os.Rename, which first stats the target to turn
	// "is a directory" into a friendlier error: the kernel refuses that
	// rename anyway, and the stat would be one more syscall per result file.
	err := syscall.Rename(tmpName, path)
	for err == syscall.EINTR {
		err = syscall.Rename(tmpName, path)
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("results: %w", &os.LinkError{Op: "rename", Old: tmpName, New: path, Err: err})
	}
	if s.durable {
		if err := syncDir(filepath.Dir(path)); err != nil {
			return err
		}
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	return nil
}

// sweepTmp removes orphaned temp files left behind by a crashed writer.
// Shallow sweeps cover a directory's own entries; recursive sweeps descend
// (used when opening a single experiment, where the tree is bounded).
func sweepTmp(dir string, recursive bool) {
	if !recursive {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return
		}
		for _, ent := range entries {
			if !ent.IsDir() && strings.HasPrefix(ent.Name(), tmpPrefix) {
				os.Remove(filepath.Join(dir, ent.Name()))
			}
		}
		return
	}
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // best-effort: a vanished entry is already gone
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), tmpPrefix) {
			os.Remove(path)
		}
		return nil
	})
}
