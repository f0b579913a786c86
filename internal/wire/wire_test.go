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

// FuzzServeConn feeds a served connection arbitrary bytes: no panic, every
// frame the handler sees is within the size limit, and the server hangs up
// or answers but never wedges.
func FuzzServeConn(f *testing.F) {
	f.Add([]byte("{\"n\":1}\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("not json\n{\"n\":2,\"s\":\"\\u2028\"}\n"))
	f.Add([]byte("{\"n\":1}"))
	f.Add(bytes.Repeat([]byte("x"), readBufferBytes+10))
	f.Add(append(bytes.Repeat([]byte("y"), 2*readBufferBytes), '\n'))
	f.Fuzz(func(t *testing.T, input []byte) {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			serveConn(server, func(frame []byte) any {
				if len(frame) > MaxMessageBytes {
					t.Errorf("handler saw a %d-byte frame", len(frame))
				}
				var m echoMsg
				json.Unmarshal(frame, &m)
				return m
			})
		}()
		go io.Copy(io.Discard, client)
		client.Write(input)
		client.Close()
		<-done
	})
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
