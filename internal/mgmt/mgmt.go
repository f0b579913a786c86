// Package mgmt implements the testbed's initialization interface — the role
// IPMI plays in the paper's hardware testbed. It is an out-of-band channel:
// a small TCP protocol, served by the node's emulated BMC, that can power a
// node on or off, reset it, select its boot image, and report its state even
// when the node's OS is wedged. This is what makes the testbed recoverable
// from arbitrary misconfiguration (requirement R3).
package mgmt

import (
	"encoding/json"
	"fmt"
	"net"

	"pos/internal/node"
	"pos/internal/wire"
)

// Ops understood by the BMC.
const (
	OpStatus   = "status"
	OpPowerOn  = "power_on"
	OpPowerOff = "power_off"
	OpReset    = "reset"
	OpSetBoot  = "set_boot"
)

// Request is one BMC command.
type Request struct {
	Op string `json:"op"`
	// Image and Params apply to set_boot.
	Image  string            `json:"image,omitempty"`
	Params map[string]string `json:"params,omitempty"`
}

// Response is the BMC's answer.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// State and Boots are filled for status (and after power ops).
	State string `json:"state,omitempty"`
	Boots int    `json:"boots,omitempty"`
}

// Server is an emulated baseboard management controller for one node.
type Server struct {
	node *node.Node
	ln   net.Listener
}

// Serve starts the BMC on a loopback TCP port and returns it. Close the
// server to release the port.
func Serve(n *node.Node) (*Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("mgmt %s: %w", n.Name, err)
	}
	s := &Server{node: n, ln: ln}
	go wire.Serve(ln, s.handle)
	return s, nil
}

// Addr returns the BMC's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the BMC.
func (s *Server) Close() error { return s.ln.Close() }

func (s *Server) handle(frame []byte) any {
	var req Request
	if err := json.Unmarshal(frame, &req); err != nil {
		return Response{Error: "bad request: " + err.Error()}
	}
	resp := Response{OK: true}
	switch req.Op {
	case OpStatus:
		// nothing extra
	case OpPowerOn:
		if err := s.node.PowerOn(); err != nil {
			resp = Response{Error: err.Error()}
		}
	case OpPowerOff:
		s.node.PowerOff()
	case OpReset:
		if err := s.node.Reset(); err != nil {
			resp = Response{Error: err.Error()}
		}
	case OpSetBoot:
		if err := s.node.SetBoot(req.Image, req.Params); err != nil {
			resp = Response{Error: err.Error()}
		}
	default:
		resp = Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
	resp.State = string(s.node.State())
	resp.Boots = s.node.BootCount()
	return resp
}

// Client talks to one node's BMC.
type Client struct {
	conn *wire.Conn
}

// Dial connects to a BMC.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mgmt: dial %s: %w", addr, err)
	}
	return &Client{conn: wire.NewConn(nc)}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) call(req Request) (Response, error) {
	var resp Response
	if err := c.conn.Call(req, &resp); err != nil {
		return Response{}, err
	}
	if !resp.OK {
		return resp, fmt.Errorf("mgmt: %s: %s", req.Op, resp.Error)
	}
	return resp, nil
}

// Status reports the node's lifecycle state and boot count.
func (c *Client) Status() (state string, boots int, err error) {
	resp, err := c.call(Request{Op: OpStatus})
	return resp.State, resp.Boots, err
}

// PowerOn boots the node from its configured image.
func (c *Client) PowerOn() error {
	_, err := c.call(Request{Op: OpPowerOn})
	return err
}

// PowerOff cuts power unconditionally.
func (c *Client) PowerOff() error {
	_, err := c.call(Request{Op: OpPowerOff})
	return err
}

// Reset power-cycles the node.
func (c *Client) Reset() error {
	_, err := c.call(Request{Op: OpReset})
	return err
}

// SetBoot selects the boot image and kernel parameters.
func (c *Client) SetBoot(imageRef string, params map[string]string) error {
	_, err := c.call(Request{Op: OpSetBoot, Image: imageRef, Params: params})
	return err
}
