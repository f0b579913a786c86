package publish

import (
	"io/fs"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// prefetchWindow bounds how many files the readers run ahead of the tar
// writer; the window keeps the disk busy while bounding memory.
const prefetchWindow = 8

// slot is one archive entry on its way to the tar writer: a regular file
// with its content, or, when link is set, a further path of an inode already
// archived under link. File i of the manifest passes through slot
// i % prefetchWindow; the slot's buffer keeps its capacity for the next.
type slot struct {
	rel     string
	link    string
	data    []byte
	modTime time.Time
	err     error
	// path, fd and size are the open file a reader fills data from; ready
	// is signalled once the entry is complete.
	path  string
	fd    int
	size  int64
	ready chan struct{}
}

type inodeKey struct{ dev, ino uint64 }

// prefetcher reads the files of one archive ahead of its writer. One
// goroutine opens and stats the files in manifest order, so which path of a
// hardlinked inode is the first — and carries the bytes — does not depend on
// read timing (later paths are never read), and hands each regular file to
// one of prefetchWindow long-lived readers. The writer takes entries in
// order with next and gives each slot back with release once the entry's
// bytes are written; no slot is refilled before that. Files are opened and
// read through their descriptors: no os.File or os.FileInfo per file.
type prefetcher struct {
	ring [prefetchWindow]slot
	free chan struct{} // one token per slot the writer does not hold
	// reads holds up to a ring's worth of opened files, so the opener never
	// waits for a reader to pick one up.
	reads chan *slot
	stop  chan struct{}
	wg    sync.WaitGroup
}

func startPrefetch(dir string, rels []string) *prefetcher {
	p := &prefetcher{
		free:  make(chan struct{}, prefetchWindow),
		reads: make(chan *slot, prefetchWindow),
		stop:  make(chan struct{}),
	}
	for i := range p.ring {
		p.ring[i].ready = make(chan struct{}, 1)
		p.free <- struct{}{}
	}
	p.wg.Add(prefetchWindow + 1)
	for range prefetchWindow {
		go p.reader()
	}
	go p.open(dir, rels)
	return p
}

// next waits for file i of the manifest.
func (p *prefetcher) next(i int) *slot {
	s := &p.ring[i%prefetchWindow]
	<-s.ready
	return s
}

// release hands the slot taken last back to the ring.
func (p *prefetcher) release() { p.free <- struct{}{} }

// close stops the prefetch and returns once every goroutine has exited and
// every file is closed.
func (p *prefetcher) close() {
	close(p.stop)
	p.wg.Wait()
}

func (p *prefetcher) open(dir string, rels []string) {
	defer p.wg.Done()
	defer close(p.reads)
	first := make(map[inodeKey]string)
	for i, rel := range rels {
		select {
		case <-p.free:
		case <-p.stop:
			return
		}
		s := &p.ring[i%prefetchWindow]
		s.rel, s.link, s.data, s.err = rel, "", s.data[:0], nil
		s.path = filepath.Join(dir, filepath.FromSlash(rel))
		var st syscall.Stat_t
		fd, err := openStat(s.path, &st)
		if err != nil {
			s.err = err
			s.ready <- struct{}{}
			continue
		}
		s.modTime = mtime(&st)
		// Only an inode with more than one link can turn up twice.
		if st.Nlink > 1 {
			key := inodeKey{dev: uint64(st.Dev), ino: uint64(st.Ino)}
			if s.link = first[key]; s.link != "" {
				syscall.Close(fd)
				s.ready <- struct{}{}
				continue
			}
			first[key] = rel
		}
		s.fd, s.size = fd, st.Size
		p.reads <- s
	}
}

// openStat opens path for reading and stats the file it opened.
func openStat(path string, st *syscall.Stat_t) (int, error) {
	fd, err := retry(func() (int, error) { return syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0) })
	if err != nil {
		return -1, &fs.PathError{Op: "open", Path: path, Err: err}
	}
	if _, err := retry(func() (int, error) { return 0, syscall.Fstat(fd, st) }); err != nil {
		syscall.Close(fd)
		return -1, &fs.PathError{Op: "stat", Path: path, Err: err}
	}
	return fd, nil
}

func retry(call func() (int, error)) (int, error) {
	for {
		if n, err := call(); err != syscall.EINTR {
			return n, err
		}
	}
}

func (p *prefetcher) reader() {
	defer p.wg.Done()
	for s := range p.reads {
		s.data, s.err = readAll(s.data, s.fd, s.size)
		syscall.Close(s.fd)
		if s.err != nil {
			s.err = &fs.PathError{Op: "read", Path: s.path, Err: s.err}
		}
		s.ready <- struct{}{}
	}
}

// readAll appends the file behind fd to buf, sized by what stat reported and
// grown if the file has grown since, as os.ReadFile does.
func readAll(buf []byte, fd int, size int64) ([]byte, error) {
	if want := int(size) + 1; cap(buf) < want {
		buf = make([]byte, 0, max(want, 512))
	}
	for {
		n, err := retry(func() (int, error) { return syscall.Read(fd, buf[len(buf):cap(buf)]) })
		if err != nil {
			return buf, err
		}
		if n == 0 {
			return buf, nil
		}
		buf = buf[:len(buf)+n]
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}
