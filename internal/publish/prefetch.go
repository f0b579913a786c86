package publish

import (
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// prefetchWindow bounds how many files the readers run ahead of the tar
// writer; the window keeps the disk busy while bounding memory.
const prefetchWindow = 8

// fileData is one archive entry: a regular file with its content, or, when
// link is set, a further path of an inode already archived under link.
type fileData struct {
	rel     string
	link    string
	data    []byte
	modTime time.Time
	err     error
}

type inodeKey struct{ dev, ino uint64 }

// prefetchFiles streams the named files of dir to out in order, each as a
// one-shot channel its reader fills, with up to prefetchWindow reads in
// flight. Files are stat'ed here, in order, so which path of a hardlinked
// inode is the first — and carries the bytes — does not depend on read
// timing; later paths are never read. It closes out once every reader has
// finished, and stops early when stop closes.
func prefetchFiles(dir string, rels []string, out chan<- chan fileData, stop <-chan struct{}) {
	var readers sync.WaitGroup
	defer close(out)
	defer readers.Wait()
	first := make(map[inodeKey]string)
	for _, rel := range rels {
		slot := make(chan fileData, 1)
		select {
		case out <- slot:
		case <-stop:
			return
		}
		full := filepath.Join(dir, filepath.FromSlash(rel))
		fd := fileData{rel: rel}
		info, err := os.Stat(full)
		if err != nil {
			fd.err = err
			slot <- fd
			continue
		}
		fd.modTime = info.ModTime()
		if key, shared := statIdentity(info); shared {
			if fd.link = first[key]; fd.link != "" {
				slot <- fd
				continue
			}
			first[key] = rel
		}
		readers.Add(1)
		go func() {
			defer readers.Done()
			fd.data, fd.err = os.ReadFile(full)
			slot <- fd
		}()
	}
}

// statIdentity reports the file's (device, inode) identity and whether the
// inode is shared between paths (hardlink count above one): only those can
// turn up twice in one tree.
func statIdentity(info os.FileInfo) (inodeKey, bool) {
	if st, ok := info.Sys().(*syscall.Stat_t); ok {
		return inodeKey{dev: uint64(st.Dev), ino: uint64(st.Ino)}, st.Nlink > 1
	}
	return inodeKey{}, false
}
