// Package testbed assembles the pos testbed controller: it owns the image
// store, the allocation calendar, the hosttools service, and a set of
// emulated experiment hosts, each reachable through its out-of-band
// initialization interface (internal/mgmt, the IPMI stand-in) and its
// in-band configuration interface (internal/shell, the SSH stand-in) over
// real TCP. It adapts each node to core.Host so the workflow engine in
// internal/core can drive experiments without knowing how nodes are wired.
package testbed

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"pos/internal/calendar"
	"pos/internal/core"
	"pos/internal/hosttools"
	"pos/internal/image"
	"pos/internal/mgmt"
	"pos/internal/node"
	"pos/internal/shell"
)

// BootHook runs on a node right after every successful boot, before the
// experiment's setup script. Experiments use hooks to attach their domain
// commands (packet generators, router control) — the analog of the binaries
// a live image ships.
type BootHook func(n *node.Node) error

// Handle bundles one node with its control-plane servers and clients.
type Handle struct {
	Node *node.Node

	bmcSrv   *mgmt.Server
	shellSrv *shell.Server
	bmc      *mgmt.Client
	sh       *shell.Client
	hooks    []BootHook
	mu       sync.Mutex
}

// Testbed is the controller state.
type Testbed struct {
	Images   *image.Store
	Calendar *calendar.Calendar
	Service  *hosttools.Service

	mu    sync.Mutex
	nodes map[string]*Handle
}

// New returns an empty testbed with a fresh image store, calendar and
// hosttools service.
func New() *Testbed {
	return &Testbed{
		Images:   image.NewStore(),
		Calendar: calendar.New(nil),
		Service:  hosttools.NewService(nil),
		nodes:    make(map[string]*Handle),
	}
}

// AddNode registers a new experiment host and starts its control-plane
// servers on loopback TCP ports.
func (tb *Testbed) AddNode(name string) (*Handle, error) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if _, exists := tb.nodes[name]; exists {
		return nil, fmt.Errorf("testbed: node %q already exists", name)
	}
	n := node.New(name, tb.Images)
	n.BootDelay = time.Millisecond

	bmcSrv, err := mgmt.Serve(n)
	if err != nil {
		return nil, err
	}
	shellSrv, err := shell.Serve(n)
	if err != nil {
		bmcSrv.Close()
		return nil, err
	}
	bmc, err := mgmt.Dial(bmcSrv.Addr())
	if err != nil {
		bmcSrv.Close()
		shellSrv.Close()
		return nil, err
	}
	sh, err := shell.Dial(shellSrv.Addr())
	if err != nil {
		bmc.Close()
		bmcSrv.Close()
		shellSrv.Close()
		return nil, err
	}
	h := &Handle{Node: n, bmcSrv: bmcSrv, shellSrv: shellSrv, bmc: bmc, sh: sh}
	tb.nodes[name] = h
	tb.Calendar.AddNode(name)
	return h, nil
}

// Handle returns a node's handle.
func (tb *Testbed) Handle(name string) (*Handle, error) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	h, ok := tb.nodes[name]
	if !ok {
		return nil, fmt.Errorf("testbed: unknown node %q", name)
	}
	return h, nil
}

// Nodes lists registered node names, sorted.
func (tb *Testbed) Nodes() []string {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	out := make([]string, 0, len(tb.nodes))
	for n := range tb.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// OnBoot appends a boot hook to a node.
func (h *Handle) OnBoot(hook BootHook) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.hooks = append(h.hooks, hook)
}

// BMCAddr exposes the node's initialization-interface address.
func (h *Handle) BMCAddr() string { return h.bmcSrv.Addr() }

// ShellAddr exposes the node's configuration-interface address.
func (h *Handle) ShellAddr() string { return h.shellSrv.Addr() }

// Close shuts down the testbed's control-plane servers and connections.
func (tb *Testbed) Close() {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	for _, h := range tb.nodes {
		h.bmc.Close()
		h.sh.Close()
		h.bmcSrv.Close()
		h.shellSrv.Close()
	}
}

// Runner builds a core.Runner over this testbed's hosts.
func (tb *Testbed) Runner() *core.Runner {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	hosts := make(map[string]core.Host, len(tb.nodes))
	for name, h := range tb.nodes {
		hosts[name] = &tcpHost{tb: tb, h: h}
	}
	return &core.Runner{
		Hosts:    hosts,
		Service:  tb.Service,
		Calendar: tb.Calendar,
	}
}

// tcpHost adapts a Handle to core.Host using the TCP control interfaces the
// way the real controller uses IPMI and SSH. Tool deployment necessarily
// reaches into the node object: deployed tools are Go functions, the analog
// of binaries copied onto a live host.
type tcpHost struct {
	tb *Testbed
	h  *Handle
}

func (t *tcpHost) Name() string { return t.h.Node.Name }

func (t *tcpHost) SetBoot(imageRef string, params map[string]string) error {
	return t.h.bmc.SetBoot(imageRef, params)
}

func (t *tcpHost) Reboot() error {
	return t.h.bmc.Reset()
}

func (t *tcpHost) DeployTools() error {
	if err := hosttools.Install(t.h.Node, t.tb.Service); err != nil {
		return err
	}
	t.h.mu.Lock()
	hooks := append([]BootHook(nil), t.h.hooks...)
	t.h.mu.Unlock()
	for _, hook := range hooks {
		if err := hook(t.h.Node); err != nil {
			return fmt.Errorf("testbed: boot hook on %s: %w", t.h.Node.Name, err)
		}
	}
	return nil
}

func (t *tcpHost) Exec(ctx context.Context, script string, env map[string]string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	var timeout time.Duration
	if dl, ok := ctx.Deadline(); ok {
		// Zero means "no limit" to the daemon, so a deadline that has just
		// passed must not be sent as one.
		if timeout = time.Until(dl); timeout <= 0 {
			return "", context.DeadlineExceeded
		}
	}
	res, err := t.h.sh.ExecTimeout(script, env, timeout)
	return res.Output, err
}
