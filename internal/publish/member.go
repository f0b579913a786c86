package publish

import (
	"bytes"
	"compress/gzip"
	"io"
	"runtime"
	"sync"
)

// memberSize is the uncompressed payload of one gzip member. Each member
// restarts deflate's 32 KiB window and Huffman tables, so smaller members
// compress worse, and larger ones leave cores idle on a sub-megabyte
// release. Measured against a single-member gzip of the same bytes, 128 KiB
// costs 1.3 % on a sweep tree (logs and latency samples), 2.5 % on MoonGen
// log text alone; 64 KiB costs twice that. It is a constant of the archive
// format: changing it changes every archive's bytes.
const memberSize = 128 << 10

// member is one slice of the stream on its way through a compressor.
type member struct {
	in    []byte
	out   bytes.Buffer
	ready chan struct{}
}

var (
	memberPool = sync.Pool{New: func() any {
		return &member{in: make([]byte, 0, memberSize), ready: make(chan struct{}, 1)}
	}}
	gzipPool = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}
)

// memberWriter compresses what is written to it as a sequence of
// independent gzip members (RFC 1952 §2.2), memberSize bytes of input each,
// deflated concurrently and written to w strictly in stream order. Member
// boundaries depend only on the byte offset in the stream, so the output is
// the same for any number of workers; any gzip reader that handles
// concatenated members (stdlib gzip.Reader by default, gzip(1), tar xzf)
// reads it back as one stream.
type memberWriter struct {
	w io.Writer
	// cur is the member being filled. It exists from the start, so a
	// stream of no bytes still closes with one (empty) member and is valid
	// gzip; after a flush the next Write fetches a new one.
	cur *member
	// queue carries members to the emitter in stream order. A member is
	// queued before its compressor starts and the emitter holds one more
	// while it waits for it, so a buffer of workers−1 bounds the running
	// compressors at workers.
	queue chan *member
	done  chan struct{}

	mu  sync.Mutex
	err error
}

func newMemberWriter(w io.Writer) *memberWriter {
	mw := &memberWriter{
		w:     w,
		cur:   memberPool.Get().(*member),
		queue: make(chan *member, runtime.GOMAXPROCS(0)-1),
		done:  make(chan struct{}),
	}
	go mw.emit()
	return mw
}

func (mw *memberWriter) Write(p []byte) (int, error) {
	n := 0
	for len(p) > 0 {
		if mw.cur == nil {
			mw.cur = memberPool.Get().(*member)
		}
		m := mw.cur
		c := copy(m.in[len(m.in):memberSize], p)
		m.in = m.in[:len(m.in)+c]
		p = p[c:]
		n += c
		if len(m.in) == memberSize {
			if err := mw.flush(); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// flush hands the current member to a compressor and reports the first
// error the emitter has met so far, so a failing destination stops the
// producer at the next member instead of at Close.
func (mw *memberWriter) flush() error {
	m := mw.cur
	mw.cur = nil
	mw.queue <- m
	go m.compress()
	return mw.firstErr()
}

func (m *member) compress() {
	zw := gzipPool.Get().(*gzip.Writer)
	zw.Reset(&m.out)
	zw.Write(m.in) // into a bytes.Buffer: cannot fail
	zw.Close()
	gzipPool.Put(zw)
	m.ready <- struct{}{}
}

// emit writes finished members in queue order. After an error it keeps
// draining so that no producer or compressor is left blocked.
func (mw *memberWriter) emit() {
	defer close(mw.done)
	for m := range mw.queue {
		<-m.ready
		if mw.firstErr() == nil {
			if _, err := mw.w.Write(m.out.Bytes()); err != nil {
				mw.mu.Lock()
				mw.err = err
				mw.mu.Unlock()
			}
		}
		m.in = m.in[:0]
		m.out.Reset()
		memberPool.Put(m)
	}
}

func (mw *memberWriter) firstErr() error {
	mw.mu.Lock()
	defer mw.mu.Unlock()
	return mw.err
}

// Close compresses the final short member and returns once every member
// has been written and all goroutines have exited.
func (mw *memberWriter) Close() error {
	if mw.cur != nil {
		mw.flush()
	}
	close(mw.queue)
	<-mw.done
	return mw.err
}
