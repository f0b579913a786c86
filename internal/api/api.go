// Package api exposes the testbed controller as an HTTP/JSON service — the
// "pos API" that the paper's experiment scripts interact with to allocate
// devices, configure boots, and execute commands. The server fronts a
// testbed.Testbed; the client provides typed access for tooling and remote
// experiment scripts.
//
//	GET    /api/v1/nodes                  list nodes with state
//	GET    /api/v1/nodes/{name}           one node's state
//	POST   /api/v1/nodes/{name}/boot      {"image": ..., "params": {...}}
//	POST   /api/v1/nodes/{name}/power     {"op": "on"|"off"|"reset"}
//	POST   /api/v1/nodes/{name}/exec      {"script": ..., "env": {...}}
//	GET    /api/v1/images                 list live images
//	GET    /api/v1/allocations            active allocations
//	POST   /api/v1/allocations            {"user", "nodes", "minutes"}
//	DELETE /api/v1/allocations/{id}?user= release
//	POST   /api/v1/campaigns              submit a campaign to the queue
//	GET    /api/v1/campaigns              full queue state
//	GET    /api/v1/campaigns/{id}         one campaign's status
//	DELETE /api/v1/campaigns/{id}?user=   cancel queued / preempt running
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"pos/internal/calendar"
	"pos/internal/eventlog"
	"pos/internal/health"
	"pos/internal/node"
	"pos/internal/queue"
	"pos/internal/results"
	"pos/internal/telemetry"
	"pos/internal/testbed"
	"pos/internal/wire"
)

// NodeStatus is one node's state as reported by the API.
type NodeStatus struct {
	Name  string `json:"name"`
	State string `json:"state"`
	Boots int    `json:"boots"`
}

// BootRequest selects a node's live image and boot parameters.
type BootRequest struct {
	Image  string            `json:"image"`
	Params map[string]string `json:"params,omitempty"`
}

// PowerRequest controls a node's power state out of band.
type PowerRequest struct {
	Op string `json:"op"` // "on", "off", "reset"
}

// ExecRequest runs a script on a node.
type ExecRequest struct {
	Script    string            `json:"script"`
	Env       map[string]string `json:"env,omitempty"`
	TimeoutMS int64             `json:"timeout_ms,omitempty"`
}

// ExecResponse reports a script execution.
type ExecResponse struct {
	Output   string `json:"output"`
	ExitCode int    `json:"exit_code"`
	Error    string `json:"error,omitempty"`
}

// AllocationRequest reserves nodes.
type AllocationRequest struct {
	User    string   `json:"user"`
	Nodes   []string `json:"nodes"`
	Minutes int      `json:"minutes"`
}

// AllocationResponse is a confirmed reservation.
type AllocationResponse struct {
	ID    int       `json:"id"`
	User  string    `json:"user"`
	Nodes []string  `json:"nodes"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

// Server serves the controller API for one testbed.
type Server struct {
	tb     *testbed.Testbed
	http   *http.Server
	ln     net.Listener
	store  *results.Store
	events *eventlog.Pipeline
	queue  *queue.Controller
	health *health.Watchdog
}

// SetResults attaches a results store, enabling the read-only results
// endpoints:
//
//	GET /api/v1/results/{user}/{exp}                list execution ids
//	GET /api/v1/results/{user}/{exp}/{id}/runs      list runs with metadata
func (s *Server) SetResults(store *results.Store) { s.store = store }

// ServerOption configures Serve.
type ServerOption func(*serverConfig)

type serverConfig struct {
	debug bool
}

// WithDebug mounts net/http/pprof under /debug/pprof/ — profiling a live
// controller without a rebuild. Off by default: the profile endpoints can
// stall the process and do not belong on an unattended testbed API.
func WithDebug() ServerOption {
	return func(c *serverConfig) { c.debug = true }
}

// Serve starts the API on a loopback TCP port.
func Serve(tb *testbed.Testbed, opts ...ServerOption) (*Server, error) {
	var cfg serverConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("api: %w", err)
	}
	s := &Server{tb: tb, ln: ln}
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	handle("GET /api/v1/nodes", s.listNodes)
	handle("GET /api/v1/nodes/{name}", s.getNode)
	handle("POST /api/v1/nodes/{name}/boot", s.setBoot)
	handle("POST /api/v1/nodes/{name}/power", s.power)
	handle("POST /api/v1/nodes/{name}/exec", s.exec)
	handle("GET /api/v1/images", s.listImages)
	handle("GET /api/v1/allocations", s.listAllocations)
	handle("POST /api/v1/allocations", s.allocate)
	handle("DELETE /api/v1/allocations/{id}", s.release)
	handle("POST /api/v1/campaigns", s.submitCampaign)
	handle("GET /api/v1/campaigns", s.listCampaigns)
	handle("GET /api/v1/campaigns/{id}", s.getCampaign)
	handle("DELETE /api/v1/campaigns/{id}", s.cancelCampaign)
	handle("GET /api/v1/results/{user}/{exp}", s.listResults)
	handle("GET /api/v1/results/{user}/{exp}/{id}/runs", s.listRuns)
	handle("GET /api/v1/health", s.healthStatus)
	// The exposition endpoints are deliberately uninstrumented: scraping
	// metrics should not move the metrics. The event stream joins them —
	// a long-lived SSE connection would wreck the latency histogram.
	mux.HandleFunc("GET /metrics", s.metricsText)
	mux.HandleFunc("GET /api/v1/metrics", s.metricsJSON)
	mux.HandleFunc("GET /api/v1/events", s.streamEvents)
	if cfg.debug {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.http = &http.Server{Handler: mux}
	go s.http.Serve(ln)
	return s, nil
}

// statusWriter captures the response code a handler writes, defaulting to
// 200 when the handler never calls WriteHeader explicitly.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with per-endpoint latency and status counting,
// and is the single place trace context crosses the server boundary: an
// incoming traceparent header is parsed into the request context (malformed
// or absent values fall back to an untraced context, never an error) and
// echoed on the response, so submissions keep their submitter's trace
// identity. The histogram child is resolved once at mux construction, off
// the hot path.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	latency := requestSeconds.With(pattern)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		ctx := r.Context()
		tp := r.Header.Get(telemetry.TraceParentHeader)
		if _, _, ok := telemetry.ParseTraceParent(tp); ok {
			ctx = telemetry.ContextWithTraceParent(ctx, tp)
			w.Header().Set(telemetry.TraceParentHeader, tp)
		}
		h(sw, r.WithContext(ctx))
		latency.Observe(time.Since(start).Seconds())
		requestsTotal.With(pattern, strconv.Itoa(sw.code)).Inc()
	}
}

func (s *Server) metricsText(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.Default.WritePrometheus(w)
}

func (s *Server) metricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, telemetry.Default.Snapshot())
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown gracefully stops the server: the listener closes immediately,
// in-flight handlers drain until they finish or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.http.Shutdown(ctx)
}

// Close shuts the server down with a short drain window.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// writeJSON writes v as the response body, as json.Encoder writes it: the
// JSON and a newline. A wire.Appender encodes itself.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if a, ok := v.(wire.Appender); ok {
		if body := a.AppendJSON(make([]byte, 0, 512)); len(body) > 0 {
			w.Write(append(body, '\n'))
		}
		return
	}
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// maxBodyBytes bounds a request or response body the API reads.
const maxBodyBytes = 16 << 20

// readJSON decodes the request body into v: through its DecodeJSON when v is
// a wire.Decoder, which rejects unknown keys itself, and through
// encoding/json with unknown fields disallowed otherwise.
func readJSON(r *http.Request, v any) error {
	defer r.Body.Close()
	body := io.LimitReader(r.Body, maxBodyBytes)
	if d, ok := v.(wire.Decoder); ok {
		data, err := io.ReadAll(body)
		if err != nil {
			return err
		}
		return d.DecodeJSON(data)
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// unmarshal decodes a response body into out, through its DecodeJSON when
// out is a wire.Decoder.
func unmarshal(data []byte, out any) error {
	if d, ok := out.(wire.Decoder); ok {
		return d.DecodeJSON(data)
	}
	return json.Unmarshal(data, out)
}

func (s *Server) handleOf(r *http.Request) (*testbed.Handle, error) {
	return s.tb.Handle(r.PathValue("name"))
}

func (s *Server) listNodes(w http.ResponseWriter, r *http.Request) {
	var out []NodeStatus
	for _, name := range s.tb.Nodes() {
		h, err := s.tb.Handle(name)
		if err != nil {
			continue
		}
		out = append(out, NodeStatus{Name: name, State: string(h.Node.State()), Boots: h.Node.BootCount()})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) getNode(w http.ResponseWriter, r *http.Request) {
	h, err := s.handleOf(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, NodeStatus{Name: h.Node.Name, State: string(h.Node.State()), Boots: h.Node.BootCount()})
}

func (s *Server) setBoot(w http.ResponseWriter, r *http.Request) {
	h, err := s.handleOf(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	var req BootRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := h.Node.SetBoot(req.Image, req.Params); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) power(w http.ResponseWriter, r *http.Request) {
	h, err := s.handleOf(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	var req PowerRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	switch req.Op {
	case "on":
		err = h.Node.PowerOn()
	case "off":
		h.Node.PowerOff()
	case "reset":
		err = h.Node.Reset()
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("api: unknown power op %q", req.Op))
		return
	}
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, NodeStatus{Name: h.Node.Name, State: string(h.Node.State()), Boots: h.Node.BootCount()})
}

func (s *Server) exec(w http.ResponseWriter, r *http.Request) {
	h, err := s.handleOf(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	var req ExecRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	out, err := h.Node.Exec(ctx, req.Script, req.Env)
	resp := ExecResponse{Output: out}
	if err != nil {
		resp.Error = err.Error()
		if exit, ok := err.(*node.ExitError); ok {
			resp.ExitCode = exit.Code
		} else {
			resp.ExitCode = -1
		}
		writeJSON(w, http.StatusConflict, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) listImages(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.tb.Images.List())
}

func (s *Server) listAllocations(w http.ResponseWriter, r *http.Request) {
	// Retire ended reservations before reporting: an allocation past its End
	// must neither show up here nor slow future conflict scans.
	s.tb.Calendar.Expire(time.Now())
	active := s.tb.Calendar.Active(time.Now())
	out := make([]AllocationResponse, 0, len(active))
	for _, a := range active {
		out = append(out, AllocationResponse{ID: a.ID, User: a.User, Nodes: a.Nodes, Start: a.Start, End: a.End})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) allocate(w http.ResponseWriter, r *http.Request) {
	var req AllocationRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Minutes <= 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("api: minutes must be positive"))
		return
	}
	start := time.Now()
	s.tb.Calendar.Expire(start)
	alloc, err := s.tb.Calendar.Allocate(req.User, req.Nodes, start, start.Add(time.Duration(req.Minutes)*time.Minute))
	if err != nil {
		writeErr(w, allocateStatus(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, AllocationResponse{
		ID: alloc.ID, User: alloc.User, Nodes: alloc.Nodes, Start: alloc.Start, End: alloc.End,
	})
}

func (s *Server) release(w http.ResponseWriter, r *http.Request) {
	// Strict parse: "12junk" is a bad id, not allocation 12 (same contract
	// as the results store's run_NNNN parsing).
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("api: bad allocation id %q", r.PathValue("id")))
		return
	}
	user := r.URL.Query().Get("user")
	if err := s.tb.Calendar.Release(user, id); err != nil {
		writeErr(w, releaseStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// allocateStatus maps a Calendar.Allocate error onto an HTTP status: only a
// genuine reservation conflict is 409; a request naming an unknown node is
// 404, and malformed requests (empty node set, duplicates, non-positive
// interval) are the client's fault — 400.
func allocateStatus(err error) int {
	switch {
	case errors.Is(err, calendar.ErrUnknownNode):
		return http.StatusNotFound
	case errors.Is(err, calendar.ErrBadInterval),
		errors.Is(err, calendar.ErrNoNodes),
		errors.Is(err, calendar.ErrDuplicateReq):
		return http.StatusBadRequest
	default:
		return http.StatusConflict
	}
}

// releaseStatus maps a Calendar.Release error: missing allocation is 404,
// someone else's allocation is 403.
func releaseStatus(err error) int {
	switch {
	case errors.Is(err, calendar.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, calendar.ErrWrongUser):
		return http.StatusForbidden
	default:
		return http.StatusConflict
	}
}

// RunView is one measurement run's metadata plus its artifact paths.
type RunView struct {
	Run       int               `json:"run"`
	LoopVars  map[string]string `json:"loop_vars"`
	Failed    bool              `json:"failed,omitempty"`
	Error     string            `json:"error,omitempty"`
	Artifacts []string          `json:"artifacts"`
}

func (s *Server) listResults(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: no results store attached"))
		return
	}
	ids, err := s.store.ListExperiments(r.PathValue("user"), r.PathValue("exp"))
	if errors.Is(err, fs.ErrInvalid) {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if ids == nil {
		ids = []string{}
	}
	writeJSON(w, http.StatusOK, ids)
}

func (s *Server) listRuns(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: no results store attached"))
		return
	}
	exp, err := s.store.OpenExperiment(r.PathValue("user"), r.PathValue("exp"), r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	runs, err := exp.Runs()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	out := make([]RunView, 0, len(runs))
	for _, run := range runs {
		meta, err := exp.ReadRunMeta(run)
		if err != nil {
			continue
		}
		arts, _ := exp.RunArtifacts(run)
		if arts == nil {
			arts = []string{}
		}
		out = append(out, RunView{
			Run: run, LoopVars: meta.LoopVars,
			Failed: meta.Failed, Error: meta.Error, Artifacts: arts,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// Client is a typed client for the controller API.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
}

// NewClient returns a client for the API at addr (host:port).
func NewClient(addr string) *Client {
	// The deadline lives on each request's context, never on http.Client
	// .Timeout: a transport-wide cap would silently cut down any exec
	// whose server-side budget (TimeoutMS) exceeds it.
	return &Client{base: "http://" + addr, hc: &http.Client{}, timeout: 30 * time.Second}
}

// SetTimeout sets the client's baseline per-request deadline (default 30s,
// zero disables). Execs carrying their own budget extend past it — the
// baseline then only bounds the transport overhead on top of the budget.
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

func (c *Client) do(method, path string, body, out any) error {
	return c.doCtx(context.Background(), method, path, body, out, 0)
}

// doCtx issues one request. extra > 0 is a server-side execution budget the
// request must outlive: the deadline becomes extra plus the baseline, so the
// HTTP layer never expires before the work it is waiting on.
func (c *Client) doCtx(ctx context.Context, method, path string, body, out any, extra time.Duration) error {
	var rd io.Reader
	if a, ok := body.(wire.Appender); ok {
		rd = bytes.NewReader(a.AppendJSON(make([]byte, 0, 256)))
	} else if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("api: %w", err)
		}
		rd = bytes.NewReader(data)
	}
	if d := c.requestTimeout(extra); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate trace identity: the context's active span (or a pending
	// remote parent being relayed) rides the W3C traceparent header, so the
	// server can stitch its work under the caller's trace.
	if tp := telemetry.TraceParentFromContext(ctx); tp != "" {
		req.Header.Set(telemetry.TraceParentHeader, tp)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	if resp.StatusCode >= 400 {
		var eb errorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			// For exec, the body may carry output alongside the error.
			if out != nil {
				_ = unmarshal(data, out)
			}
			return fmt.Errorf("api: %s %s: %s", method, path, eb.Error)
		}
		return fmt.Errorf("api: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	if err := unmarshal(data, out); err != nil {
		return fmt.Errorf("api: decoding response: %w", err)
	}
	return nil
}

// requestTimeout derives one request's deadline: the baseline alone for
// plain calls, the execution budget plus the baseline when the server was
// asked to work for up to `extra`.
func (c *Client) requestTimeout(extra time.Duration) time.Duration {
	if extra <= 0 {
		return c.timeout
	}
	return extra + c.timeout
}

// Nodes lists all nodes.
func (c *Client) Nodes() ([]NodeStatus, error) {
	var out []NodeStatus
	err := c.do(http.MethodGet, "/api/v1/nodes", nil, &out)
	return out, err
}

// Node fetches one node's status.
func (c *Client) Node(name string) (NodeStatus, error) {
	var out NodeStatus
	err := c.do(http.MethodGet, "/api/v1/nodes/"+name, nil, &out)
	return out, err
}

// SetBoot selects a node's image and boot parameters.
func (c *Client) SetBoot(name, image string, params map[string]string) error {
	return c.do(http.MethodPost, "/api/v1/nodes/"+name+"/boot", BootRequest{Image: image, Params: params}, nil)
}

// Power controls a node's power state ("on", "off", "reset").
func (c *Client) Power(name, op string) (NodeStatus, error) {
	var out NodeStatus
	err := c.do(http.MethodPost, "/api/v1/nodes/"+name+"/power", PowerRequest{Op: op}, &out)
	return out, err
}

// Exec runs a script on a node under the client's baseline deadline.
func (c *Client) Exec(name, script string, env map[string]string) (ExecResponse, error) {
	return c.ExecContext(context.Background(), name, script, env, 0)
}

// ExecContext runs a script with an execution budget. timeout > 0 is passed
// to the server as TimeoutMS to bound the script, and the client's own HTTP
// deadline is extended to the budget plus the baseline — a long measurement
// is never cut down by the transport while the server is still within the
// window the caller granted it. The context cancels the request early.
func (c *Client) ExecContext(ctx context.Context, name, script string, env map[string]string, timeout time.Duration) (ExecResponse, error) {
	req := ExecRequest{Script: script, Env: env}
	if timeout > 0 {
		req.TimeoutMS = timeout.Milliseconds()
	}
	var out ExecResponse
	err := c.doCtx(ctx, http.MethodPost, "/api/v1/nodes/"+name+"/exec", req, &out, timeout)
	return out, err
}

// Images lists the image store's refs.
func (c *Client) Images() ([]string, error) {
	var out []string
	err := c.do(http.MethodGet, "/api/v1/images", nil, &out)
	return out, err
}

// Allocate reserves nodes for a number of minutes.
func (c *Client) Allocate(user string, nodes []string, minutes int) (AllocationResponse, error) {
	var out AllocationResponse
	err := c.do(http.MethodPost, "/api/v1/allocations", AllocationRequest{User: user, Nodes: nodes, Minutes: minutes}, &out)
	return out, err
}

// Allocations lists active reservations.
func (c *Client) Allocations() ([]AllocationResponse, error) {
	var out []AllocationResponse
	err := c.do(http.MethodGet, "/api/v1/allocations", nil, &out)
	return out, err
}

// Release frees a reservation.
func (c *Client) Release(user string, id int) error {
	return c.do(http.MethodDelete, fmt.Sprintf("/api/v1/allocations/%d?user=%s", id, user), nil, nil)
}

// Results lists the execution ids of user/exp.
func (c *Client) Results(user, exp string) ([]string, error) {
	var out []string
	err := c.do(http.MethodGet, fmt.Sprintf("/api/v1/results/%s/%s", user, exp), nil, &out)
	return out, err
}

// Runs lists one execution's measurement runs with metadata and artifacts.
func (c *Client) Runs(user, exp, id string) ([]RunView, error) {
	var out []RunView
	err := c.do(http.MethodGet, fmt.Sprintf("/api/v1/results/%s/%s/%s/runs", user, exp, id), nil, &out)
	return out, err
}

// Metrics fetches the server's telemetry as a structured JSON snapshot.
func (c *Client) Metrics() (telemetry.Snapshot, error) {
	var out telemetry.Snapshot
	err := c.do(http.MethodGet, "/api/v1/metrics", nil, &out)
	return out, err
}

// MetricsText fetches the server's /metrics in Prometheus text exposition
// format.
func (c *Client) MetricsText() ([]byte, error) {
	ctx := context.Background()
	if d := c.requestTimeout(0); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("api: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("api: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("api: GET /metrics: HTTP %d", resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 16<<20))
}
