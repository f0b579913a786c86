// Package hosttools provides the pos utility tools that the controller
// deploys onto every experiment host right after boot (Sec. 4.4): commands to
// read and communicate variables, to synchronize hosts with barriers, and to
// run commands with their output captured and uploaded to the controller as
// results. The controller-side state (variable store, barriers, uploads)
// lives in Service; Install registers the host-side commands on a node.
package hosttools

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"pos/internal/node"
)

// Variable scopes, mirroring the pos variable kinds.
const (
	// ScopeGlobal variables are visible to every experiment host.
	ScopeGlobal = "global"
	// ScopeLoop variables hold the current measurement run's loop values.
	ScopeLoop = "loop"
	// Local scope is the node's own name.
)

// Uploader receives captured results on the controller.
type Uploader interface {
	// Upload stores one result artifact produced on a node.
	Upload(nodeName, artifact string, data []byte) error
}

// UploaderFunc adapts a function to Uploader.
type UploaderFunc func(nodeName, artifact string, data []byte) error

// Upload implements Uploader.
func (f UploaderFunc) Upload(n, a string, d []byte) error { return f(n, a, d) }

// ErrBarrierTimeout is returned when a barrier does not fill in time.
var ErrBarrierTimeout = errors.New("hosttools: barrier timed out")

// DefaultBarrierTimeout bounds barrier waits so a crashed host cannot hang
// an experiment forever.
const DefaultBarrierTimeout = 30 * time.Second

// Service is the controller-side endpoint the host tools talk to.
type Service struct {
	mu       sync.Mutex
	vars     map[string]map[string]string
	barriers map[string]*barrier
	uploader Uploader
	binding  map[string]*Scope
	// uploadHook, when set, screens every upload before routing.
	uploadHook func(nodeName, artifact string) error
	// BarrierTimeout overrides DefaultBarrierTimeout when positive.
	BarrierTimeout time.Duration
}

// NewService returns an empty service. uploader may be nil, in which case
// uploads fail with a descriptive error.
func NewService(uploader Uploader) *Service {
	return &Service{
		vars:     make(map[string]map[string]string),
		barriers: make(map[string]*barrier),
		uploader: uploader,
		binding:  make(map[string]*Scope),
	}
}

// SetUploadHook installs a screen consulted before every upload is routed;
// a non-nil error refuses the upload. The fault injector uses it to drop
// the Nth upload of a node deterministically (a lost result file); nil
// removes the hook.
func (s *Service) SetUploadHook(hook func(nodeName, artifact string) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.uploadHook = hook
}

// Scope is a per-run (or per-session) view of the service: its own loop
// variables, its own upload sink, and a private barrier namespace. Nodes are
// bound to at most one scope at a time; while bound, their loop-variable
// reads/writes, uploads, and barriers resolve against the scope instead of
// the service-wide state. Two scopes over disjoint node sets make two
// measurement runs safe to execute concurrently — the per-run handle the
// campaign scheduler dispatches onto replica testbeds.
type Scope struct {
	svc      *Service
	id       string
	loop     map[string]string
	uploader Uploader
}

// NewScope creates a scope. id namespaces the scope's barriers and appears
// in error messages; uploader may be nil, in which case uploads from bound
// nodes fail descriptively.
func (s *Service) NewScope(id string, uploader Uploader) *Scope {
	return &Scope{svc: s, id: id, loop: make(map[string]string), uploader: uploader}
}

// SetVar stores a loop variable visible only to nodes bound to this scope.
func (sc *Scope) SetVar(key, value string) {
	sc.svc.mu.Lock()
	defer sc.svc.mu.Unlock()
	sc.loop[key] = value
}

// LoopVars snapshots the scope's loop variables.
func (sc *Scope) LoopVars() map[string]string {
	sc.svc.mu.Lock()
	defer sc.svc.mu.Unlock()
	out := make(map[string]string, len(sc.loop))
	for k, v := range sc.loop {
		out[k] = v
	}
	return out
}

// Bind attaches nodes to the scope, displacing any previous binding.
func (sc *Scope) Bind(nodes ...string) {
	sc.svc.mu.Lock()
	defer sc.svc.mu.Unlock()
	for _, n := range nodes {
		sc.svc.binding[n] = sc
	}
}

// Close detaches every node still bound to this scope. A node rebound to a
// newer scope is left alone, so a late Close cannot steal a successor's
// binding.
func (sc *Scope) Close() {
	sc.svc.mu.Lock()
	defer sc.svc.mu.Unlock()
	for n, bound := range sc.svc.binding {
		if bound == sc {
			delete(sc.svc.binding, n)
		}
	}
}

// scopeOf returns the scope a node is bound to, or nil.
func (s *Service) scopeOf(node string) *Scope {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.binding[node]
}

// LookupVar reads a variable the way a command running on nodeName would:
// the loop scope resolves against the node's bound Scope when one exists.
func (s *Service) LookupVar(nodeName, scope, key string) (string, bool) {
	if scope == ScopeLoop {
		if sc := s.scopeOf(nodeName); sc != nil {
			s.mu.Lock()
			defer s.mu.Unlock()
			v, ok := sc.loop[key]
			return v, ok
		}
	}
	return s.GetVar(scope, key)
}

// storeVar writes a variable the way a command running on nodeName would.
func (s *Service) storeVar(nodeName, scope, key, value string) {
	if scope == ScopeLoop {
		if sc := s.scopeOf(nodeName); sc != nil {
			sc.SetVar(key, value)
			return
		}
	}
	s.SetVar(scope, key, value)
}

// SetVar stores a variable in a scope ("global", "loop", or a node name).
func (s *Service) SetVar(scope, key, value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.vars[scope]
	if !ok {
		m = make(map[string]string)
		s.vars[scope] = m
	}
	m[key] = value
}

// GetVar reads a variable from a scope.
func (s *Service) GetVar(scope, key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.vars[scope][key]
	return v, ok
}

// Vars snapshots one scope.
func (s *Service) Vars(scope string) map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.vars[scope]))
	for k, v := range s.vars[scope] {
		out[k] = v
	}
	return out
}

// ClearScope drops every variable in a scope (used between measurement runs
// for the loop scope).
func (s *Service) ClearScope(scope string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.vars, scope)
}

// barrier is a reusable counting barrier.
type barrier struct {
	mu      sync.Mutex
	need    int
	arrived int
	gen     int
	release chan struct{}
}

func newBarrier(need int) *barrier {
	return &barrier{need: need, release: make(chan struct{})}
}

func (b *barrier) wait(ctx context.Context) error {
	b.mu.Lock()
	b.arrived++
	if b.arrived >= b.need {
		b.arrived = 0
		b.gen++
		close(b.release)
		b.release = make(chan struct{})
		b.mu.Unlock()
		return nil
	}
	gen := b.gen
	ch := b.release
	b.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		// Withdraw the arrival so the next wave is not released short:
		// a timed-out waiter that stayed counted would be a ghost
		// participant filling someone else's barrier. Generation-aware —
		// if the barrier released between the timeout firing and the
		// lock, the wait actually succeeded and there is nothing to
		// withdraw.
		b.mu.Lock()
		defer b.mu.Unlock()
		if b.gen != gen {
			return nil
		}
		b.arrived--
		return ErrBarrierTimeout
	}
}

// BarrierAs is Barrier from a node's point of view: a node bound to a Scope
// synchronizes within the scope's private namespace, so two concurrent runs
// using the same barrier names (e.g. "run_done") cannot cross-release each
// other.
func (s *Service) BarrierAs(ctx context.Context, nodeName, name string, parties int) error {
	if sc := s.scopeOf(nodeName); sc != nil {
		name = sc.id + "\x00" + name
	}
	return s.Barrier(ctx, name, parties)
}

// Barrier blocks until parties callers (including this one) have reached the
// named barrier, or until the timeout elapses. All callers must agree on the
// party count; a mismatch is reported as an error.
func (s *Service) Barrier(ctx context.Context, name string, parties int) error {
	if parties < 1 {
		return fmt.Errorf("hosttools: barrier %q: parties must be >= 1", name)
	}
	s.mu.Lock()
	b, ok := s.barriers[name]
	if !ok {
		b = newBarrier(parties)
		s.barriers[name] = b
	}
	timeout := s.BarrierTimeout
	s.mu.Unlock()
	if b.need != parties {
		return fmt.Errorf("hosttools: barrier %q: party count mismatch (%d vs %d)", name, parties, b.need)
	}
	if timeout <= 0 {
		timeout = DefaultBarrierTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	start := time.Now()
	err := b.wait(ctx)
	barrierWaitSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		barrierTimeouts.Inc()
	}
	return err
}

// Upload forwards a result artifact to the uploading node's scope when it is
// bound to one, else to the service-level uploader. Routing by the node's
// current binding is what keeps a straggling upload out of a *different*
// run's directory: once its run scope closes, the straggler is refused (or
// caught by the service-level sink) instead of landing wherever the most
// recently installed uploader points.
func (s *Service) Upload(nodeName, artifact string, data []byte) error {
	s.mu.Lock()
	u := s.uploader
	hook := s.uploadHook
	scopeID := ""
	if sc := s.binding[nodeName]; sc != nil {
		u = sc.uploader
		scopeID = sc.id
	}
	s.mu.Unlock()
	if hook != nil {
		if err := hook(nodeName, artifact); err != nil {
			uploadsRefused.Inc()
			return err
		}
	}
	if u == nil {
		uploadsRefused.Inc()
		var err error
		if scopeID != "" {
			err = fmt.Errorf("hosttools: scope %s accepts no uploads (artifact %s from %s)", scopeID, artifact, nodeName)
		} else {
			err = fmt.Errorf("hosttools: no uploader configured (artifact %s from %s)", artifact, nodeName)
		}
		return err
	}
	if err := u.Upload(nodeName, artifact, data); err != nil {
		uploadsRefused.Inc()
		return err
	}
	uploadsTotal.Inc()
	uploadBytes.Add(float64(len(data)))
	return nil
}

// Install deploys the pos utility commands onto a running node. It must be
// re-run after every boot, as live-booting wipes deployed tools.
func Install(n *node.Node, svc *Service) error {
	cmds := map[string]node.Command{
		// pos_set_var <scope> <key> <value>
		"pos_set_var": func(_ context.Context, host *node.Node, args []string, stdout, _ node.ErrWriter) error {
			if len(args) != 3 {
				return fmt.Errorf("usage: pos_set_var <scope> <key> <value>")
			}
			scope := resolveScope(args[0], host.Name)
			svc.storeVar(host.Name, scope, args[1], args[2])
			return nil
		},
		// pos_get_var <scope> <key> — prints the value
		"pos_get_var": func(_ context.Context, host *node.Node, args []string, stdout, _ node.ErrWriter) error {
			if len(args) != 2 {
				return fmt.Errorf("usage: pos_get_var <scope> <key>")
			}
			scope := resolveScope(args[0], host.Name)
			v, ok := svc.LookupVar(host.Name, scope, args[1])
			if !ok {
				return fmt.Errorf("variable %s/%s not set", scope, args[1])
			}
			fmt.Fprintln(writer{stdout}, v)
			return nil
		},
		// pos_sync <name> <parties> — barrier across hosts
		"pos_sync": func(ctx context.Context, host *node.Node, args []string, stdout, _ node.ErrWriter) error {
			if len(args) != 2 {
				return fmt.Errorf("usage: pos_sync <name> <parties>")
			}
			parties, err := strconv.Atoi(args[1])
			if err != nil {
				return fmt.Errorf("pos_sync: bad party count %q", args[1])
			}
			if err := svc.BarrierAs(ctx, host.Name, args[0], parties); err != nil {
				return err
			}
			fmt.Fprintf(writer{stdout}, "synced %s\n", args[0])
			return nil
		},
		// pos_upload <artifact> <content...> — upload a result
		"pos_upload": func(_ context.Context, host *node.Node, args []string, _, _ node.ErrWriter) error {
			if len(args) < 1 {
				return fmt.Errorf("usage: pos_upload <artifact> [content...]")
			}
			return svc.Upload(host.Name, args[0], []byte(strings.Join(args[1:], " ")))
		},
		// pos_upload_file <artifact> <path> — upload a node file as result
		"pos_upload_file": func(_ context.Context, host *node.Node, args []string, _, _ node.ErrWriter) error {
			if len(args) != 2 {
				return fmt.Errorf("usage: pos_upload_file <artifact> <path>")
			}
			data, err := host.ReadFile(args[1])
			if err != nil {
				return err
			}
			return svc.Upload(host.Name, args[0], data)
		},
		// pos_run <artifact> <command> [args...] — run a command, echo its
		// output, and upload the capture as a result artifact.
		"pos_run": func(ctx context.Context, host *node.Node, args []string, stdout, stderr node.ErrWriter) error {
			if len(args) < 2 {
				return fmt.Errorf("usage: pos_run <artifact> <command> [args...]")
			}
			inner, ok := host.LookupCommand(args[1])
			if !ok {
				return fmt.Errorf("pos_run: %s: command not found", args[1])
			}
			var capture strings.Builder
			tee := teeWriter{a: &capture, b: stdout}
			runErr := inner(ctx, host, args[2:], tee, tee)
			if upErr := svc.Upload(host.Name, args[0], []byte(capture.String())); upErr != nil {
				return upErr
			}
			return runErr
		},
	}
	for name, cmd := range cmds {
		if err := n.RegisterCommand(name, cmd); err != nil {
			return err
		}
	}
	return nil
}

// resolveScope maps the script-facing scope word to a store scope.
func resolveScope(word, nodeName string) string {
	switch word {
	case ScopeGlobal, ScopeLoop:
		return word
	case "local":
		return nodeName
	default:
		return word
	}
}

// writer adapts node.ErrWriter to io.Writer for fmt.
type writer struct{ w node.ErrWriter }

func (w writer) Write(p []byte) (int, error) { return w.w.Write(p) }

// teeWriter duplicates writes to two sinks.
type teeWriter struct {
	a *strings.Builder
	b node.ErrWriter
}

func (t teeWriter) Write(p []byte) (int, error) {
	t.a.Write(p)
	return t.b.Write(p)
}
