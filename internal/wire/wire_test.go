package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"pos/internal/telemetry"
)

type echoMsg struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func startEcho(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go Serve(ln, func(frame []byte) any {
		var m echoMsg
		if err := json.Unmarshal(frame, &m); err != nil {
			return echoMsg{N: -1}
		}
		m.N++
		return m
	})
	return ln.Addr().String()
}

func dial(t *testing.T, addr string) *Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return NewConn(nc)
}

func TestCallRoundTrip(t *testing.T) {
	c := dial(t, startEcho(t))
	var resp echoMsg
	if err := c.Call(echoMsg{N: 41, S: "hello"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != 42 || resp.S != "hello" {
		t.Errorf("resp = %+v", resp)
	}
}

func TestMultipleCallsOneConnection(t *testing.T) {
	c := dial(t, startEcho(t))
	for i := 0; i < 50; i++ {
		var resp echoMsg
		if err := c.Call(echoMsg{N: i}, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.N != i+1 {
			t.Fatalf("call %d: resp.N = %d", i, resp.N)
		}
	}
}

func TestConcurrentCallers(t *testing.T) {
	c := dial(t, startEcho(t))
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp echoMsg
			if err := c.Call(echoMsg{N: i}, &resp); err != nil {
				errs <- err
				return
			}
			if resp.N != i+1 {
				errs <- &json.UnsupportedValueError{}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent call: %v", err)
	}
}

func TestLargeMessage(t *testing.T) {
	c := dial(t, startEcho(t))
	big := strings.Repeat("x", 1<<20)
	var resp echoMsg
	if err := c.Call(echoMsg{S: big}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.S != big {
		t.Error("large payload corrupted")
	}
}

func TestOversizedMessageRejected(t *testing.T) {
	c := dial(t, startEcho(t))
	big := strings.Repeat("x", MaxMessageBytes+1)
	if err := c.Send(echoMsg{S: big}); err != ErrMessageTooLarge {
		t.Errorf("err = %v, want ErrMessageTooLarge", err)
	}
}

func TestRecvBadJSON(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	conn := NewConn(a)
	go b.Write([]byte("this is not json\n"))
	var v echoMsg
	if err := conn.Recv(&v); err == nil {
		t.Error("Recv accepted invalid JSON")
	}
}

// A frame that merely fails to decode was read whole: the stream is still in
// step and the next frame is the next message.
func TestBadJSONLeavesConnectionUsable(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	conn := NewConn(a)
	go b.Write([]byte("this is not json\n{\"n\":7,\"s\":\"next\"}\n"))
	var v echoMsg
	if err := conn.Recv(&v); err == nil {
		t.Fatal("Recv accepted invalid JSON")
	}
	if err := conn.Recv(&v); err != nil || v.N != 7 || v.S != "next" {
		t.Errorf("frame after a decode error: %+v, %v", v, err)
	}
}

// A response past the size limit leaves the rest of its frame in the socket.
// The next call must not parse that remainder as its own response: the
// connection is broken and says so, with the first error.
func TestOversizedResponseBreaksConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, err := bufio.NewReader(nc).ReadSlice('\n'); err != nil {
			return
		}
		// One oversized frame whose tail, read as a frame of its own, is a
		// well-formed response.
		nc.Write(bytes.Repeat([]byte{'x'}, MaxMessageBytes+1))
		nc.Write([]byte("\n{\"n\":666,\"s\":\"garbage\"}\n{\"n\":667,\"s\":\"garbage\"}\n"))
		io.Copy(io.Discard, nc)
	}()
	c := dial(t, ln.Addr().String())
	var resp echoMsg
	if err := c.Call(echoMsg{N: 1}, &resp); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("first call: err = %v, want ErrMessageTooLarge", err)
	}
	for i := 0; i < 2; i++ {
		resp = echoMsg{}
		if err := c.Call(echoMsg{N: 2}, &resp); !errors.Is(err, ErrMessageTooLarge) {
			t.Fatalf("call on the broken connection: resp = %+v, err = %v, want ErrMessageTooLarge again", resp, err)
		}
	}
}

// A peer that hangs up mid-frame breaks the connection the same way.
func TestTruncatedFrameBreaksConnection(t *testing.T) {
	a, b := net.Pipe()
	conn := NewConn(a)
	go func() {
		b.Write([]byte(`{"n":1,"s":"cut of`))
		b.Close()
	}()
	var v echoMsg
	if err := conn.Recv(&v); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if err := conn.Send(echoMsg{}); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("Send after the break: err = %v, want the first error", err)
	}
}

// One large frame must not leave its buffer in the pool.
func TestFramePoolDropsLargeBuffers(t *testing.T) {
	buf := new([]byte)
	putFrame(buf, make([]byte, 0, readBufferBytes+1))
	if cap(*buf) != 0 {
		t.Errorf("a %d-byte buffer went back to the pool", cap(*buf))
	}
	putFrame(buf, make([]byte, 10, readBufferBytes))
	if cap(*buf) != readBufferBytes || len(*buf) != 0 {
		t.Errorf("pooled buffer: len %d cap %d", len(*buf), cap(*buf))
	}
}

// appenderMsg encodes itself; Send must take its word for it.
type appenderMsg struct{ n int }

func (m appenderMsg) AppendJSON(dst []byte) []byte {
	return append(dst, fmt.Sprintf(`{"s":"self-encoded","n":%d}`, m.n)...)
}

func TestSendUsesAppender(t *testing.T) {
	c := dial(t, startEcho(t))
	var resp echoMsg
	if err := c.Call(appenderMsg{n: 9}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != 10 || resp.S != "self-encoded" {
		t.Errorf("resp = %+v", resp)
	}
}

// streamConn is a connection whose peer sent input and then closed its
// write side: reads drain input and end in io.EOF, writes are discarded.
type streamConn struct {
	net.Conn
	r io.Reader
}

func (c streamConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c streamConn) Write(p []byte) (int, error) { return len(p), nil }
func (c streamConn) Close() error                { return nil }

// FuzzServeConn feeds a served connection arbitrary bytes: no panic, the
// server returns at the end of the input, and the handler sees exactly the
// input's complete newline-terminated frames, in order and byte for byte —
// whether a frame fits the read buffer or is assembled across several
// reads. The trailing unterminated bytes, if any, are no frame.
func FuzzServeConn(f *testing.F) {
	f.Add([]byte("{\"n\":1}\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("not json\n{\"n\":2,\"s\":\"\\u2028\"}\n"))
	f.Add([]byte("{\"n\":1}"))
	f.Add(bytes.Repeat([]byte("x"), readBufferBytes+10))
	f.Add(append(bytes.Repeat([]byte("y"), 2*readBufferBytes), '\n'))
	// Frames one short of, exactly at, and one past the read buffer
	// (newline included: 4096 fills it, 4097 and 4098 take the assembly
	// path), each followed by a short frame that must come out intact.
	for _, n := range []int{4095, 4096, 4097} {
		frame := append(bytes.Repeat([]byte{'a' + byte(n%26)}, n), "\n{\"n\":3}\n"...)
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		var want [][]byte
		for rest := input; ; {
			i := bytes.IndexByte(rest, '\n')
			if i < 0 || i+1 > MaxMessageBytes {
				break
			}
			want = append(want, rest[:i])
			rest = rest[i+1:]
		}
		var got [][]byte
		serveConn(streamConn{r: bytes.NewReader(input)}, func(frame []byte) any {
			got = append(got, bytes.Clone(frame))
			var m echoMsg
			json.Unmarshal(frame, &m)
			return m
		})
		if len(got) != len(want) {
			t.Fatalf("handler saw %d frames, input has %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d: handler saw %d bytes %.40q, input has %d bytes %.40q",
					i, len(got[i]), got[i], len(want[i]), want[i])
			}
		}
	})
}

// connAllocBudget is 15 % above the 10 300 bytes per connection measured
// when the budget was set (go1.24, on 75e920f, GOMAXPROCS 1 and 2): dialling
// a loopback TCP connection, serving it, and one Call of a small message,
// client and server ends together. Each end holds one read buffer; with
// 64 KiB buffers the same connection costs 133 000 bytes.
const connAllocBudget = 11_800

func TestConnAllocationBudget(t *testing.T) {
	addr := startEcho(t)
	roundTrip := func() {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		var resp echoMsg
		if err := NewConn(nc).Call(echoMsg{N: 1, S: "hello"}, &resp); err != nil || resp.N != 2 {
			t.Fatalf("resp = %+v, err = %v", resp, err)
		}
	}
	roundTrip() // warm the frame pool and the listener
	const conns = 200
	before := telemetry.ReadRuntimeStats().AllocBytes
	for i := 0; i < conns; i++ {
		roundTrip()
	}
	perConn := (telemetry.ReadRuntimeStats().AllocBytes - before) / conns
	t.Logf("dial, serve and one round trip: %d bytes per connection (budget %d)", perConn, connAllocBudget)
	if perConn > connAllocBudget {
		t.Errorf("a connection allocates %d bytes, budget %d", perConn, connAllocBudget)
	}
}

func TestRecvClosedConnection(t *testing.T) {
	a, b := net.Pipe()
	conn := NewConn(a)
	b.Close()
	var v echoMsg
	if err := conn.Recv(&v); err == nil {
		t.Error("Recv succeeded on closed connection")
	}
}

func TestServeStopsOnListenerClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- Serve(ln, func([]byte) any { return nil }) }()
	ln.Close()
	if err := <-done; err == nil {
		t.Error("Serve returned nil after listener close")
	}
}
