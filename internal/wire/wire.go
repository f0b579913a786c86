// Package wire implements the newline-delimited JSON framing shared by the
// testbed's control protocols (the IPMI-like initialization interface in
// internal/mgmt and the SSH-like configuration interface in internal/shell).
// One JSON object per line, request/response in lockstep on a single TCP
// connection.
//
// Two rules for code on either side of a connection. Frames handed to a
// Handler are borrowed: the bytes are the connection's read buffer, valid
// until the handler returns, so a daemon unmarshals what it needs and keeps
// nothing. And the bytes on the socket are not an oracle: a message may
// encode itself (AppendJSON) or go through encoding/json, key order and
// escaping may differ between the two, and only the decoded values are the
// protocol.
package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// MaxMessageBytes bounds a single framed message (16 MiB) so a corrupt peer
// cannot make the reader buffer unboundedly.
const MaxMessageBytes = 16 << 20

// ErrMessageTooLarge is returned for frames exceeding MaxMessageBytes.
var ErrMessageTooLarge = errors.New("wire: message exceeds size limit")

// readBufferBytes is the connection's read buffer. A frame that fits is
// decoded where it lies; a longer one is assembled in a pooled buffer.
const readBufferBytes = 64 << 10

// framePool recycles the buffers frames are encoded into and long frames are
// assembled in. A buffer that grew past readBufferBytes is not returned, so
// one 16 MiB frame does not stay pinned for the life of the process.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

func putFrame(buf *[]byte, frame []byte) {
	if cap(frame) <= readBufferBytes {
		*buf = frame[:0]
		framePool.Put(buf)
	}
}

// Appender is a message that writes its own JSON encoding — what
// encoding/json would decode to the same value — without reflection.
type Appender interface {
	AppendJSON(dst []byte) []byte
}

// Conn wraps a stream with JSON-line framing. It is safe for one reader and
// one writer goroutine; Call serializes full round trips.
//
// A connection that fails while a frame is partly written or partly read is
// broken for good: what is left of the frame would be taken for the next
// one. The Conn closes itself and every later call returns that first error.
// A complete frame that merely fails to decode leaves the stream in step and
// the connection usable.
type Conn struct {
	raw net.Conn
	r   *bufio.Reader
	wmu sync.Mutex
	rmu sync.Mutex
	// callMu serializes request/response exchanges.
	callMu sync.Mutex

	brokenMu sync.Mutex
	broken   error
}

// NewConn wraps an established network connection.
func NewConn(c net.Conn) *Conn {
	return &Conn{raw: c, r: bufio.NewReaderSize(c, readBufferBytes)}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

// fail records the connection's first framing error, closes it, and returns
// the error every later call will see.
func (c *Conn) fail(err error) error {
	c.brokenMu.Lock()
	defer c.brokenMu.Unlock()
	if c.broken == nil {
		c.broken = err
		c.raw.Close()
	}
	return c.broken
}

func (c *Conn) err() error {
	c.brokenMu.Lock()
	defer c.brokenMu.Unlock()
	return c.broken
}

// Send encodes v and writes one frame.
func (c *Conn) Send(v any) error {
	if err := c.err(); err != nil {
		return err
	}
	buf := framePool.Get().(*[]byte)
	frame := *buf
	if a, ok := v.(Appender); ok {
		frame = a.AppendJSON(frame)
	} else {
		data, err := json.Marshal(v)
		if err != nil {
			putFrame(buf, frame)
			return fmt.Errorf("wire: marshal: %w", err)
		}
		frame = append(frame, data...)
	}
	defer func() { putFrame(buf, frame) }()
	// Nothing is on the socket yet: refusing the frame leaves it in step.
	if len(frame) > MaxMessageBytes {
		return ErrMessageTooLarge
	}
	frame = append(frame, '\n')
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.raw.Write(frame); err != nil {
		return c.fail(err)
	}
	return nil
}

// Recv reads one frame into v.
func (c *Conn) Recv(v any) error {
	return c.recv(func(frame []byte) error {
		if err := json.Unmarshal(frame, v); err != nil {
			return fmt.Errorf("wire: unmarshal: %w", err)
		}
		return nil
	})
}

// recv reads one frame and hands it to use; the bytes are valid until use
// returns.
func (c *Conn) recv(use func(frame []byte) error) error {
	if err := c.err(); err != nil {
		return err
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	frame, err := c.r.ReadSlice('\n')
	if err == nil {
		return use(frame[:len(frame)-1])
	}
	if err != bufio.ErrBufferFull {
		if err == io.EOF && len(frame) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return c.fail(err)
	}
	// Longer than the read buffer: assemble it.
	buf := framePool.Get().(*[]byte)
	long := append(*buf, frame...)
	defer func() { putFrame(buf, long) }()
	for err == bufio.ErrBufferFull {
		frame, err = c.r.ReadSlice('\n')
		long = append(long, frame...)
		if len(long) > MaxMessageBytes {
			return c.fail(ErrMessageTooLarge)
		}
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return c.fail(err)
	}
	return use(long[:len(long)-1])
}

// Call performs one request/response round trip.
func (c *Conn) Call(req, resp any) error {
	c.callMu.Lock()
	defer c.callMu.Unlock()
	if err := c.Send(req); err != nil {
		return err
	}
	return c.Recv(resp)
}

// Handler processes one request frame and returns the response object. The
// frame is borrowed: it is valid until the handler returns.
type Handler func(frame []byte) (resp any)

// Serve accepts connections on l and runs each through loop until the
// listener closes. It returns when Accept fails (listener closed).
func Serve(l net.Listener, h Handler) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go serveConn(conn, h)
	}
}

func serveConn(nc net.Conn, h Handler) {
	c := NewConn(nc)
	defer c.Close()
	for {
		var resp any
		if err := c.recv(func(frame []byte) error { resp = h(frame); return nil }); err != nil {
			return
		}
		if err := c.Send(resp); err != nil {
			return
		}
	}
}
