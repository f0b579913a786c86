// Package shell implements the testbed's configuration interface — the role
// SSH plays on the paper's Linux experiment hosts. It is the in-band channel
// the controller uses after boot: execute experiment scripts with injected
// variables, push files, and fetch files. Script output and exit codes are
// returned in full so the controller can archive them as results
// (requirement R5). Unlike the mgmt interface, this channel only works while
// the node's OS is up; a wedged node refuses it, which is exactly the
// situation the out-of-band interface exists for.
package shell

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"pos/internal/jsonenc"
	"pos/internal/node"
	"pos/internal/wire"
)

// Ops understood by the shell daemon.
const (
	OpExec = "exec"
	OpPut  = "put"
	OpGet  = "get"
	OpEnv  = "env"
)

// Request is one shell operation.
type Request struct {
	Op string `json:"op"`
	// Script and Env apply to exec.
	Script string            `json:"script,omitempty"`
	Env    map[string]string `json:"env,omitempty"`
	// TimeoutMS bounds an exec (0 = no limit; negative = the caller's
	// deadline has already passed).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Path and Data apply to put/get.
	Path string `json:"path,omitempty"`
	Data []byte `json:"data,omitempty"`
	// Key/Value apply to env.
	Key   string `json:"key,omitempty"`
	Value string `json:"value,omitempty"`
}

// Response is the daemon's answer.
type Response struct {
	OK     bool   `json:"ok"`
	Error  string `json:"error,omitempty"`
	Output string `json:"output,omitempty"`
	// ExitCode is the script's exit status (exec only; -1 on transport
	// failure).
	ExitCode int    `json:"exit_code"`
	Data     []byte `json:"data,omitempty"`
}

// AppendJSON appends the request as one JSON object, field for field what
// encoding/json writes for it (wire.Appender).
func (r *Request) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"op":`...)
	dst = jsonenc.AppendString(dst, r.Op)
	dst = jsonenc.AppendOmitEmpty(dst, `,"script":`, r.Script)
	if len(r.Env) > 0 {
		dst = append(dst, `,"env":`...)
		dst = jsonenc.AppendStringMap(dst, r.Env)
	}
	dst = jsonenc.AppendIntOmitEmpty(dst, `,"timeout_ms":`, r.TimeoutMS)
	dst = jsonenc.AppendOmitEmpty(dst, `,"path":`, r.Path)
	if len(r.Data) > 0 {
		dst = append(dst, `,"data":`...)
		dst = jsonenc.AppendBytes(dst, r.Data)
	}
	dst = jsonenc.AppendOmitEmpty(dst, `,"key":`, r.Key)
	dst = jsonenc.AppendOmitEmpty(dst, `,"value":`, r.Value)
	return append(dst, '}')
}

// AppendJSON appends the response as one JSON object, field for field what
// encoding/json writes for it (wire.Appender).
func (r *Response) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"ok":`...)
	dst = strconv.AppendBool(dst, r.OK)
	dst = jsonenc.AppendOmitEmpty(dst, `,"error":`, r.Error)
	dst = jsonenc.AppendOmitEmpty(dst, `,"output":`, r.Output)
	dst = append(dst, `,"exit_code":`...)
	dst = strconv.AppendInt(dst, int64(r.ExitCode), 10)
	if len(r.Data) > 0 {
		dst = append(dst, `,"data":`...)
		dst = jsonenc.AppendBytes(dst, r.Data)
	}
	return append(dst, '}')
}

// DecodeJSON reads one request from frame into r, replacing what r held:
// the mirror of AppendJSON (wire.Decoder). It accepts a strict subset of what encoding/json accepts,
// and decodes that to the same Request: keys spelt as AppendJSON spells
// them, each at most once, none null.
func (r *Request) DecodeJSON(frame []byte) error {
	*r = Request{}
	d := jsonenc.NewDecoder(frame)
	for d.Next() {
		switch string(d.Key()) {
		case "op":
			r.Op = d.ReadString()
		case "script":
			r.Script = d.ReadString()
		case "env":
			r.Env = d.ReadStringMap()
		case "timeout_ms":
			r.TimeoutMS = d.ReadInt()
		case "path":
			r.Path = d.ReadString()
		case "data":
			r.Data = d.ReadBytes()
		case "key":
			r.Key = d.ReadString()
		case "value":
			r.Value = d.ReadString()
		default:
			d.Unknown()
		}
	}
	return d.Err()
}

// DecodeJSON reads one response from frame, the mirror of AppendJSON
// (wire.Decoder), under the same rules as Request.DecodeJSON.
func (r *Response) DecodeJSON(frame []byte) error {
	*r = Response{}
	d := jsonenc.NewDecoder(frame)
	for d.Next() {
		switch string(d.Key()) {
		case "ok":
			r.OK = d.ReadBool()
		case "error":
			r.Error = d.ReadString()
		case "output":
			r.Output = d.ReadString()
		case "exit_code":
			r.ExitCode = int(d.ReadInt())
		case "data":
			r.Data = d.ReadBytes()
		default:
			d.Unknown()
		}
	}
	return d.Err()
}

// Server is the shell daemon for one node.
type Server struct {
	node *node.Node
	ln   net.Listener
}

// Serve starts the daemon on a loopback TCP port.
func Serve(n *node.Node) (*Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("shell %s: %w", n.Name, err)
	}
	s := &Server{node: n, ln: ln}
	go wire.Serve(ln, s.handle)
	return s, nil
}

// Addr returns the daemon's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the daemon.
func (s *Server) Close() error { return s.ln.Close() }

func (s *Server) handle(frame []byte) wire.Appender {
	var req Request
	if err := req.DecodeJSON(frame); err != nil {
		return &Response{Error: "bad request: " + err.Error(), ExitCode: -1}
	}
	switch req.Op {
	case OpExec:
		ctx := context.Background()
		if req.TimeoutMS != 0 {
			// A negative timeout is a deadline in the past: the script's
			// first line finds the context expired.
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
			defer cancel()
		}
		out, err := s.node.Exec(ctx, req.Script, req.Env)
		resp := &Response{OK: err == nil, Output: out}
		var exit *node.ExitError
		switch {
		case err == nil:
		case errors.As(err, &exit):
			resp.ExitCode = exit.Code
			resp.Error = exit.Error()
		default:
			resp.ExitCode = -1
			resp.Error = err.Error()
		}
		return resp
	case OpPut:
		if err := s.node.WriteFile(req.Path, req.Data); err != nil {
			return &Response{Error: err.Error(), ExitCode: -1}
		}
		return &Response{OK: true}
	case OpGet:
		data, err := s.node.ReadFile(req.Path)
		if err != nil {
			return &Response{Error: err.Error(), ExitCode: -1}
		}
		return &Response{OK: true, Data: data}
	case OpEnv:
		if err := s.node.Setenv(req.Key, req.Value); err != nil {
			return &Response{Error: err.Error(), ExitCode: -1}
		}
		return &Response{OK: true}
	default:
		return &Response{Error: fmt.Sprintf("unknown op %q", req.Op), ExitCode: -1}
	}
}

// Client drives one node's shell daemon.
type Client struct {
	conn *wire.Conn
}

// Dial connects to a shell daemon.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("shell: dial %s: %w", addr, err)
	}
	return &Client{conn: wire.NewConn(nc)}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

// ExecResult is the outcome of a remote script execution.
type ExecResult struct {
	Output   string
	ExitCode int
}

// Exec runs a script with the given variable environment. A non-zero script
// exit is returned as err along with the captured output.
func (c *Client) Exec(script string, env map[string]string) (ExecResult, error) {
	return c.ExecTimeout(script, env, 0)
}

// ExecTimeout is Exec with a server-side execution deadline: zero means no
// limit, a negative timeout one that has already passed. The wire carries
// whole milliseconds, so a remainder is rounded away from zero — rounding a
// sub-millisecond timeout to zero would lift the limit altogether.
func (c *Client) ExecTimeout(script string, env map[string]string, timeout time.Duration) (ExecResult, error) {
	var resp Response
	ms := int64(timeout / time.Millisecond)
	switch rem := timeout % time.Millisecond; {
	case rem > 0:
		ms++
	case rem < 0:
		ms--
	}
	req := &Request{Op: OpExec, Script: script, Env: env, TimeoutMS: ms}
	if err := c.conn.Call(req, &resp); err != nil {
		return ExecResult{ExitCode: -1}, err
	}
	res := ExecResult{Output: resp.Output, ExitCode: resp.ExitCode}
	if !resp.OK {
		return res, fmt.Errorf("shell: exec: %s", resp.Error)
	}
	return res, nil
}

// Put writes a file on the node.
func (c *Client) Put(path string, data []byte) error {
	var resp Response
	if err := c.conn.Call(&Request{Op: OpPut, Path: path, Data: data}, &resp); err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("shell: put %s: %s", path, resp.Error)
	}
	return nil
}

// Get reads a file from the node.
func (c *Client) Get(path string) ([]byte, error) {
	var resp Response
	if err := c.conn.Call(&Request{Op: OpGet, Path: path}, &resp); err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("shell: get %s: %s", path, resp.Error)
	}
	return resp.Data, nil
}

// Setenv sets a persistent script variable on the node.
func (c *Client) Setenv(key, value string) error {
	var resp Response
	if err := c.conn.Call(&Request{Op: OpEnv, Key: key, Value: value}, &resp); err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("shell: setenv %s: %s", key, resp.Error)
	}
	return nil
}
