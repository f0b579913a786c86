package pos

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"time"

	"pos/internal/api"
	"pos/internal/calendar"
	"pos/internal/casestudy"
	"pos/internal/compare"
	"pos/internal/core"
	"pos/internal/eval"
	"pos/internal/eventlog"
	"pos/internal/expfile"
	"pos/internal/health"
	"pos/internal/hosttools"
	"pos/internal/image"
	"pos/internal/loadgen"
	"pos/internal/moonparse"
	"pos/internal/ndr"
	"pos/internal/netem"
	"pos/internal/node"
	"pos/internal/packet"
	"pos/internal/pcap"
	"pos/internal/perfmodel"
	"pos/internal/plot"
	"pos/internal/publish"
	"pos/internal/queue"
	"pos/internal/repeat"
	"pos/internal/results"
	"pos/internal/router"
	"pos/internal/sched"
	"pos/internal/sim"
	"pos/internal/telemetry"
	"pos/internal/testbed"
	"pos/internal/timeline"
	"pos/internal/topo"
	"pos/internal/vpos"
)

// Methodology types (internal/core): the experiment model and workflow
// engine — the paper's primary contribution.
type (
	// Experiment is a complete pos experiment: scripts plus variables.
	Experiment = core.Experiment
	// HostSpec binds one experiment role to a node, image, and scripts.
	HostSpec = core.HostSpec
	// Vars is a set of experiment variables.
	Vars = core.Vars
	// LoopVar is one swept parameter.
	LoopVar = core.LoopVar
	// Combination is one concrete loop-variable assignment.
	Combination = core.Combination
	// Runner executes experiments over a set of hosts.
	Runner = core.Runner
	// Host is the runner's control handle for one node.
	Host = core.Host
	// Summary reports a workflow execution.
	Summary = core.Summary
	// RunRecord summarizes one measurement run.
	RunRecord = core.RunRecord
)

// CrossProduct expands loop variables into every combination, in
// deterministic order — one measurement run per combination.
func CrossProduct(vars []LoopVar) ([]Combination, error) { return core.CrossProduct(vars) }

// NumRuns reports the cross-product size without materializing it.
func NumRuns(vars []LoopVar) int { return core.NumRuns(vars) }

// MergeVars overlays variable sets with pos precedence (later wins).
func MergeVars(layers ...Vars) Vars { return core.Merge(layers...) }

// Testbed types (internal/testbed and substrates).
type (
	// Testbed is the controller: images, calendar, nodes, host tools.
	Testbed = testbed.Testbed
	// Handle bundles one node with its control-plane endpoints.
	Handle = testbed.Handle
	// BootHook runs on a node after every boot.
	BootHook = testbed.BootHook
	// Node is one emulated experiment host.
	Node = node.Node
	// NodeCommand is an executable deployable onto a node — how
	// experiments attach domain tools (generators, routers, workloads).
	NodeCommand = node.Command
	// NodeWriter is the output sink passed to NodeCommands.
	NodeWriter = node.ErrWriter
	// Image is a versioned live-boot image.
	Image = image.Image
	// Allocation is a confirmed calendar reservation.
	Allocation = calendar.Allocation
	// Calendar is the multi-user allocation calendar.
	Calendar = calendar.Calendar
	// HostService is the controller-side variable/barrier/upload endpoint.
	HostService = hosttools.Service
)

// NewTestbed returns an empty testbed controller.
func NewTestbed() *Testbed { return testbed.New() }

// DebianBusterImage is the pinned live image of the paper's case study.
func DebianBusterImage() Image { return image.DefaultDebianBuster() }

// Results types (internal/results).
type (
	// ResultsStore is the root of the results tree.
	ResultsStore = results.Store
	// ExperimentResults is one experiment's result directory.
	ExperimentResults = results.Experiment
	// RunMeta is the per-run loop-parameter metadata.
	RunMeta = results.RunMeta
)

// ResultsOption configures a results store.
type ResultsOption = results.Option

// Durable fsyncs files and directories around every publish rename.
var Durable = results.Durable

// NewResultsStore opens (creating if needed) a results tree at dir.
func NewResultsStore(dir string, opts ...ResultsOption) (*ResultsStore, error) {
	return results.NewStore(dir, opts...)
}

// Case-study types (internal/casestudy): the paper's Sec. 5 experiment.
type (
	// CaseStudy is the running two-node LoadGen/DuT rig.
	CaseStudy = casestudy.Topology
	// Flavor selects the platform: BareMetal (pos) or Virtual (vpos).
	Flavor = casestudy.Flavor
	// SweepConfig parameterizes the rate/size sweep.
	SweepConfig = casestudy.SweepConfig
	// RunPoint is one sweep point (one cell of Fig. 3).
	RunPoint = casestudy.RunPoint
	// CaseStudyOption tweaks the topology.
	CaseStudyOption = casestudy.Option
	// ChainConfig parameterizes the multi-hop router chain.
	ChainConfig = casestudy.ChainConfig
)

// The two platforms of Fig. 3.
const (
	// BareMetal is the hardware testbed (pos).
	BareMetal = casestudy.BareMetal
	// Virtual is the virtual clone (vpos).
	Virtual = casestudy.Virtual
)

// NewCaseStudy builds the paper's two-node topology on the given platform.
func NewCaseStudy(flavor Flavor, opts ...CaseStudyOption) (*CaseStudy, error) {
	return casestudy.New(flavor, opts...)
}

// NewCaseStudyChain builds a multi-hop router chain — clusters of routers
// joined by slow trunks — on one engine. WithScalarEngine runs the identical
// chain event-per-hop — the byte-identical differential-test oracle.
func NewCaseStudyChain(flavor Flavor, cfg ChainConfig, opts ...CaseStudyOption) (*CaseStudy, error) {
	return casestudy.NewChain(flavor, cfg, opts...)
}

// WithSeed pins the vpos jitter seed.
func WithSeed(seed uint64) CaseStudyOption { return casestudy.WithSeed(seed) }

// WithSwitch inserts L2 cross-connects instead of direct wiring (ablation).
func WithSwitch(delay sim.Duration) CaseStudyOption { return casestudy.WithSwitch(delay) }

// WithGenerator selects the load-generator fidelity profile.
func WithGenerator(p GeneratorProfile) CaseStudyOption { return casestudy.WithGenerator(p) }

// WithScalarEngine opts the topology out of the batched cut-through data
// plane and runs the original event-per-hop engine — the differential-test
// oracle. Results are byte-identical either way; scalar is simply slower.
func WithScalarEngine() CaseStudyOption { return casestudy.WithScalarEngine() }

// GeneratorProfile models a traffic-generator implementation's fidelity.
type GeneratorProfile = loadgen.Profile

// MoonGenProfile is the paper's default generator (DPDK + NIC hardware
// timestamps).
func MoonGenProfile() GeneratorProfile { return loadgen.MoonGenProfile() }

// OSNTProfile is the NetFPGA hardware generator (cycle-exact, hardware
// timestamps).
func OSNTProfile() GeneratorProfile { return loadgen.OSNTProfile() }

// IPerfProfile is a sockets-based software generator (bursty, software
// timestamps only).
func IPerfProfile() GeneratorProfile { return loadgen.IPerfProfile() }

// Campaign scheduling (internal/sched): shard one experiment's measurement
// runs across replica testbeds, preserving the sequential sweep's run
// numbering and per-run artifacts.
type (
	// Campaign shards a sweep across replica testbeds.
	Campaign = sched.Campaign
	// CampaignReplica is one replica testbed participating in a campaign.
	CampaignReplica = sched.Replica
	// Session is a prepared experiment execution (nodes booted, setup
	// done); measurement runs are dispatched onto it.
	Session = core.Session
)

// NewCaseStudyReplicas builds n independent case-study topologies — the
// replica testbeds of a parallel campaign (paper's pos/vpos dual setup,
// generalized to n instances).
func NewCaseStudyReplicas(flavor Flavor, n int, opts ...CaseStudyOption) ([]*CaseStudy, error) {
	return casestudy.NewReplicas(flavor, n, opts...)
}

// CaseStudyReplicas renders one sweep as campaign replicas over topologies
// built with NewCaseStudyReplicas.
func CaseStudyReplicas(topos []*CaseStudy, cfg SweepConfig) []CampaignReplica {
	return casestudy.Replicas(topos, cfg)
}

// ShardedSweep executes a sweep's measurement points in parallel across the
// replica topologies, one goroutine per replica timeline. Results come back
// in campaign order and are deterministic regardless of GOMAXPROCS.
func ShardedSweep(topos []*CaseStudy, cfg SweepConfig) ([]RunPoint, error) {
	return casestudy.ShardedSweep(topos, cfg)
}

// Deterministic fault injection (internal/sim + internal/core): schedule
// exec/boot/upload faults by occurrence index and rehearse the campaign's
// fault-tolerance path (retry, clean-slate re-setup, quarantine) — chaos
// testing without the chaos.
type (
	// FaultPlan schedules deterministic faults for one node.
	FaultPlan = sim.FaultPlan
	// FaultInjector tracks operation counters against a set of plans.
	FaultInjector = sim.FaultInjector
)

// NewFaultInjector builds an injector over per-node fault plans.
func NewFaultInjector(plans map[string]FaultPlan) *FaultInjector {
	return sim.NewFaultInjector(plans)
}

// WithFaults arms a case-study topology with a deterministic fault schedule
// keyed by node name (vriga, vtartu).
func WithFaults(plans map[string]FaultPlan) CaseStudyOption { return casestudy.WithFaults(plans) }

// NDR search (internal/ndr): RFC 2544-style throughput search.
type (
	// NDRConfig bounds a non-drop-rate search.
	NDRConfig = ndr.Config
	// NDRResult is the outcome of a search.
	NDRResult = ndr.Result
	// NDRTrial is one measurement of a search.
	NDRTrial = ndr.Trial
	// NDRMeasurer performs one trial at a rate.
	NDRMeasurer = ndr.Measurer
)

// SearchNDR binary-searches the highest drop-free offered rate.
func SearchNDR(cfg NDRConfig, m NDRMeasurer) (NDRResult, error) { return ndr.Search(cfg, m) }

// Experiment directories (internal/expfile): the published artifact layout.

// LoadExperimentDir reads an experiment directory, optionally remapping
// roles to physical nodes.
func LoadExperimentDir(dir string, bindings map[string]string) (*Experiment, error) {
	return expfile.Load(dir, bindings)
}

// SaveExperimentDir writes an experiment as a publishable directory.
func SaveExperimentDir(exp *Experiment, dir string) error { return expfile.Save(exp, dir) }

// Repeatability verification (internal/repeat).
type (
	// RepeatConfig drives a repeatability check.
	RepeatConfig = repeat.Config
	// RepeatReport quantifies deviation across repeated executions.
	RepeatReport = repeat.Report
)

// VerifyRepeatability executes an experiment several times and quantifies
// the deviation between executions — the ACM "repeatable" property as a
// measured artifact.
func VerifyRepeatability(ctx context.Context, runner *Runner, exp *Experiment, store *ResultsStore, cfg RepeatConfig) (*RepeatReport, error) {
	return repeat.Verify(ctx, runner, exp, store, cfg)
}

// Controller HTTP API (internal/api): the "pos API" experiment tooling uses.
type (
	// APIServer serves the controller API for one testbed.
	APIServer = api.Server
	// APIClient is the typed client for the controller API.
	APIClient = api.Client
	// APIServerOption configures ServeAPI.
	APIServerOption = api.ServerOption
)

// WithAPIDebug mounts net/http/pprof under /debug/pprof/ on the controller
// API — live profiling of a serving controller.
func WithAPIDebug() APIServerOption { return api.WithDebug() }

// ServeAPI starts the controller HTTP API on a loopback port.
func ServeAPI(tb *Testbed, opts ...APIServerOption) (*APIServer, error) {
	return api.Serve(tb, opts...)
}

// NewAPIClient returns a client for a controller API at addr.
func NewAPIClient(addr string) *APIClient { return api.NewClient(addr) }

// Multi-tenant campaign queue (internal/queue): durable submissions admitted
// against the allocation calendar, fair-share across users, journaled so a
// controller restart resumes still-owed work.
type (
	// CampaignQueue is the controller's admission scheduler.
	CampaignQueue = queue.Controller
	// QueueConfig wires a CampaignQueue (journal dir, calendar, launcher).
	QueueConfig = queue.Config
	// QueueSubmission is one tenant's request to run a campaign.
	QueueSubmission = queue.Submission
	// QueueStatus is a submission plus its lifecycle state.
	QueueStatus = queue.Status
	// QueueState is a submission's lifecycle position.
	QueueState = queue.State
	// QueueLaunch runs one admitted campaign.
	QueueLaunch = queue.Launch
	// CampaignRequest is the API payload submitting one campaign.
	CampaignRequest = api.CampaignRequest
	// CampaignView is one campaign as the API reports it.
	CampaignView = api.CampaignView
)

// Queue lifecycle states.
const (
	QueueStateQueued    = queue.StateQueued
	QueueStateRunning   = queue.StateRunning
	QueueStateDone      = queue.StateDone
	QueueStateFailed    = queue.StateFailed
	QueueStateCancelled = queue.StateCancelled
)

// NewCampaignQueue replays the journal under cfg.Dir and starts the
// admission loop; attach the result to an APIServer with SetQueue.
func NewCampaignQueue(cfg QueueConfig) (*CampaignQueue, error) { return queue.Open(cfg) }

// PaperSweep is the Appendix A parameter space: 2 sizes x 30 rates.
func PaperSweep() SweepConfig { return casestudy.PaperSweep() }

// CampaignSpec is a campaign.yml: platform, seed, sweep, scheduling and
// fault policy of one case-study campaign, kept apart from the scripts.
type CampaignSpec = casestudy.Spec

// DefaultCampaignSpec is the spec of an empty campaign.yml.
func DefaultCampaignSpec() CampaignSpec { return casestudy.DefaultSpec() }

// ParseCampaignSpec decodes and validates a campaign.yml; unknown keys and
// malformed values are errors naming the key.
func ParseCampaignSpec(data []byte) (CampaignSpec, error) { return casestudy.ParseSpec(data) }

// LaunchCampaign runs exp — or, when exp is nil, the case-study sweep the
// spec describes — on testbeds built from the spec: one testbed through a
// Runner, several through a Campaign. It archives the resolved spec as
// experiment/campaign.yml.
func LaunchCampaign(ctx context.Context, spec CampaignSpec, exp *Experiment, store *ResultsStore, events *EventPipeline, opts ...CaseStudyOption) (*Summary, error) {
	return casestudy.Launch(ctx, spec, exp, store, events, opts...)
}

// ExtendedSweep widens the rate axis to expose both Fig. 3a plateaus.
func ExtendedSweep() SweepConfig { return casestudy.ExtendedSweep() }

// Evaluation types (internal/eval, internal/moonparse, internal/plot).
type (
	// RunData is one run joined with its metadata and parsed report.
	RunData = eval.RunData
	// Series is a named (x, y) sequence.
	Series = eval.Series
	// Point is one sample of a series.
	Point = eval.Point
	// MoonGenReport is a parsed MoonGen statistics log.
	MoonGenReport = moonparse.Report
	// Figure is a renderable chart (SVG/TeX/CSV).
	Figure = plot.Figure
)

// LoadRuns reads every run of an experiment, parsing the node's MoonGen log.
func LoadRuns(exp *ExperimentResults, nodeName, artifact string) ([]RunData, error) {
	return eval.LoadRuns(exp, nodeName, artifact)
}

// ThroughputSeries aggregates runs into per-group throughput series.
func ThroughputSeries(runs []RunData, groupBy, xVar string, xScale float64) ([]Series, error) {
	return eval.ThroughputSeries(runs, groupBy, xVar, xScale)
}

// AggregateSeries merges repeated measurements into mean ± stddev series;
// the resulting error bars render in every figure format.
func AggregateSeries(repetitions [][]Series) ([]Series, error) {
	return eval.AggregateSeries(repetitions)
}

// ParseMoonGen parses a MoonGen statistics log.
func ParseMoonGen(r io.Reader) (*MoonGenReport, error) { return moonparse.Parse(r) }

// LoadLatency reads latency-CSV artifacts from every run, keyed by loop
// combination.
func LoadLatency(exp *ExperimentResults, nodeName, artifact string) (map[string][]float64, error) {
	return eval.LoadLatency(exp, nodeName, artifact)
}

// StabilityFigure plots per-second received-rate samples over time — the
// Fig. 3b instability, visualized.
func StabilityFigure(title string, perSecond map[string][]float64) *Figure {
	return plot.Stability(title, perSecond)
}

// ThroughputFigure builds the Fig. 3-style line plot.
func ThroughputFigure(title string, series []Series) *Figure { return plot.Throughput(title, series) }

// LatencyCDFFigure builds a latency CDF from nanosecond samples.
func LatencyCDFFigure(title string, samplesNs map[string][]float64) *Figure {
	return plot.LatencyCDF(title, samplesNs)
}

// LatencyHDRFigure builds an HDR percentile plot.
func LatencyHDRFigure(title string, samplesNs map[string][]float64) *Figure {
	return plot.LatencyHDR(title, samplesNs)
}

// LatencyViolinFigure compares latency distributions as violins.
func LatencyViolinFigure(title string, samplesNs map[string][]float64) *Figure {
	return plot.LatencyViolin(title, samplesNs)
}

// LatencyHistogramFigure builds a latency histogram.
func LatencyHistogramFigure(title string, samplesNs []float64, bins int) *Figure {
	return plot.LatencyHistogram(title, samplesNs, bins)
}

// ExportFigure renders a figure to "<base>.{svg,tex,csv}" content pairs.
func ExportFigure(base string, f *Figure) map[string][]byte { return plot.ExportNamed(base, f) }

// Publication (internal/publish).
type (
	// PublishManifest describes a released bundle.
	PublishManifest = publish.Manifest
)

// Release publishes an experiment: generates its website and writes the
// artifact archive to destPath.
func Release(exp *ExperimentResults, user, name, destPath string) (PublishManifest, error) {
	return publish.Release(exp, user, name, destPath)
}

// WriteComparisonTable regenerates Table 1 of the paper.
func WriteComparisonTable(w io.Writer) error { return compare.Write(w) }

// DiffExperiments walks two experiment result directories and reports every
// path whose presence or bytes differ — the reproducibility check behind the
// batched-vs-scalar data-plane contract. An empty slice means the trees are
// byte-identical.
func DiffExperiments(dirA, dirB string) ([]string, error) { return compare.DiffExperiments(dirA, dirB) }

// Traffic capture types (internal/pcap, internal/packet): libpcap files and
// byte-accurate UDP/IPv4/Ethernet frame construction for replay workloads.
type (
	// PcapPacket is one captured record.
	PcapPacket = pcap.Packet
	// PcapWriter writes libpcap capture files.
	PcapWriter = pcap.Writer
	// PcapReader reads libpcap capture files.
	PcapReader = pcap.Reader
	// UDPTemplate describes a synthetic UDP frame.
	UDPTemplate = packet.UDPTemplate
	// MAC is a 48-bit Ethernet address.
	MAC = packet.MAC
	// IPv4Addr is a 32-bit IPv4 address.
	IPv4Addr = packet.IPv4Addr
)

// NewPcapWriter returns a nanosecond-resolution pcap writer.
func NewPcapWriter(w io.Writer, snapLen uint32) *PcapWriter { return pcap.NewWriter(w, snapLen) }

// NewPcapReader opens a pcap stream.
func NewPcapReader(r io.Reader) (*PcapReader, error) { return pcap.NewReader(r) }

// LineRatePPS returns the packet-rate ceiling of a link for a frame size.
func LineRatePPS(linkBitsPerSec float64, frameLen int) float64 {
	return packet.LineRatePPS(linkBitsPerSec, frameLen)
}

// Virtual-testbed service (internal/vpos): disposable vpos instances over
// HTTP — the paper's virtualtestbed.net.in.tum.de.
type (
	// VposManager owns the service's instances.
	VposManager = vpos.Manager
	// VposServer is the HTTP endpoint.
	VposServer = vpos.Server
	// VposClient drives a remote service.
	VposClient = vpos.Client
	// VposInstance is the client view of an instance.
	VposInstance = vpos.InstanceView
	// VposRunInfo summarizes an instance's last experiment execution.
	VposRunInfo = vpos.RunInfo
)

// NewVposManager creates a virtual-testbed manager rooted at dir.
func NewVposManager(dir string) (*VposManager, error) { return vpos.NewManager(dir) }

// ServeVpos exposes a manager over HTTP on a loopback port.
func ServeVpos(m *VposManager) (*VposServer, error) { return vpos.Serve(m) }

// NewVposClient returns a client for the service at addr.
func NewVposClient(addr string) *VposClient { return vpos.NewClient(addr) }

// Declarative topologies (internal/topo): virtual-testbed wiring as an
// artifact.
type (
	// TopologySpec is a parsed topology description.
	TopologySpec = topo.Spec
	// TopologyNetwork is an instantiated topology.
	TopologyNetwork = topo.Network
)

// ParseTopology reads a topology description (devices + direct links).
func ParseTopology(data []byte) (*TopologySpec, error) { return topo.Parse(data) }

// Live observability (internal/eventlog): the structured event journal and
// in-process broker behind GET /api/v1/events and `posctl watch` — a run's
// one execution record. Runners and campaigns publish typed events into a
// pipeline; the pipeline appends them to a crash-safe JSONL journal under the
// experiment's events/ directory and fans them out to subscribers whose ring
// buffers never block the publisher. Observe a run with Pipeline.Watch.
type (
	// EventPipeline stamps, journals, and broadcasts experiment events.
	EventPipeline = eventlog.Pipeline
	// ExperimentEvent is one stamped observability event.
	ExperimentEvent = eventlog.Event
	// EventSubscription is a live, non-blocking event feed.
	EventSubscription = eventlog.Subscription
	// EventStreamOptions selects what an APIClient event stream receives.
	EventStreamOptions = api.EventStreamOptions
)

// NewEventPipeline returns an empty pipeline; assign it to Runner.Events or
// Campaign.Events, observe it with Watch, and hand it to APIServer.SetEvents
// to stream it.
func NewEventPipeline() *EventPipeline { return eventlog.NewPipeline() }

// ReplayEvents reads every event a finished experiment journaled under
// dir (the experiment's events/ directory), in sequence order.
func ReplayEvents(dir string) ([]ExperimentEvent, error) { return eventlog.Replay(dir) }

// NewEventLogger returns a slog.Logger whose records become events on the
// pipeline — the structured-logging spine of the toolchain.
func NewEventLogger(p *EventPipeline, level slog.Leveler) *slog.Logger {
	return eventlog.NewLogger(p, level)
}

// WithEventLogger carries a structured logger in the context; library code
// retrieves it with eventlog.Logger and logs into the experiment's event
// stream.
func WithEventLogger(ctx context.Context, lg *slog.Logger) context.Context {
	return eventlog.WithLogger(ctx, lg)
}

// ErrStopEventStream, returned from an APIClient.StreamEvents callback,
// ends the stream cleanly.
var ErrStopEventStream = api.ErrStopStream

// Telemetry (internal/telemetry): the process-wide metrics registry and the
// hierarchical span trees archived as spans.json.
type (
	// TelemetrySnapshot is a point-in-time JSON view of every registered
	// metric — what GET /api/v1/metrics serves.
	TelemetrySnapshot = telemetry.Snapshot
	// TelemetryMetricSnapshot is one metric family in a TelemetrySnapshot.
	TelemetryMetricSnapshot = telemetry.MetricSnapshot
	// SpanRecord is one archived span of an execution's span tree.
	SpanRecord = telemetry.SpanRecord
)

// MetricsSnapshot captures the process's metrics registry as a structured
// snapshot.
func MetricsSnapshot() TelemetrySnapshot { return telemetry.Default.Snapshot() }

// WriteMetrics writes the process's metrics in Prometheus text exposition
// format — what GET /metrics serves.
func WriteMetrics(w io.Writer) error { return telemetry.Default.WritePrometheus(w) }

// SetTelemetryEnabled toggles all metric recording and span creation in the
// process. Enabled by default; disabling makes instrumentation free.
func SetTelemetryEnabled(on bool) { telemetry.Default.SetEnabled(on) }

// ParseSpans reads a spans.json artifact back into span records.
func ParseSpans(data []byte) ([]SpanRecord, error) { return telemetry.ParseSpans(data) }

// Health layer (internal/health + telemetry runtime sampling): operator-side
// supervision — per-run host-condition attribution, a watchdog over liveness
// probes, and a flight recorder for post-mortems without a live debugger.
type (
	// HealthWatchdog periodically runs liveness probes and emits typed
	// events, metrics, and flight records on trips.
	HealthWatchdog = health.Watchdog
	// HealthProbe is one pluggable watchdog check.
	HealthProbe = health.Probe
	// HealthProbeState is one probe's current standing (GET /api/v1/health).
	HealthProbeState = health.ProbeState
	// FlightRecorder keeps a warm ring of recent events for incident dumps.
	FlightRecorder = health.Recorder
	// FlightRecord is one captured incident: trigger, recent events, metrics
	// snapshot, goroutine stacks — the flightrec.json payload.
	FlightRecord = health.FlightRecord
	// RuntimeSampler polls the Go runtime into the metrics registry.
	RuntimeSampler = telemetry.RuntimeSampler
	// RuntimeDelta is one run's host-condition record (resources.json).
	RuntimeDelta = telemetry.RuntimeDelta
	// APIHealthStatus is the GET /api/v1/health response shape.
	APIHealthStatus = api.HealthStatus
)

// NewWatchdog returns a stopped watchdog checking every interval once
// started. Assign it to Campaign.Watchdog to supervise campaign progress.
func NewWatchdog(interval time.Duration) *HealthWatchdog { return health.NewWatchdog(interval) }

// NewFlightRecorder returns a recorder keeping the last capacity events
// (a default-sized ring when capacity <= 0), snapshotting the process
// metrics registry at capture time.
func NewFlightRecorder(capacity int) *FlightRecorder {
	return health.NewRecorder(capacity, telemetry.Default)
}

// NewRuntimeSampler returns a sampler polling the Go runtime into the
// process metrics registry every interval once started.
func NewRuntimeSampler(interval time.Duration) *RuntimeSampler {
	return telemetry.NewRuntimeSampler(telemetry.Default, interval)
}

// CampaignProgressProbe trips when the process's completed-run counter sits
// still past deadline while campaign runs are in flight.
func CampaignProgressProbe(deadline time.Duration) HealthProbe {
	return health.CampaignProgress(telemetry.Default, deadline)
}

// QueueStarvationProbe trips when more than passes starved admission passes
// accumulate within one window.
func QueueStarvationProbe(passes float64, window time.Duration) HealthProbe {
	return health.QueueStarvation(telemetry.Default, passes, window)
}

// EventDropProbe trips when the event broker's drop counter grows by more
// than limit within one window.
func EventDropProbe(limit float64, window time.Duration) HealthProbe {
	return health.EventDrops(telemetry.Default, limit, window)
}

// DecodeFlightRecord parses a flightrec.json payload.
func DecodeFlightRecord(data []byte) (FlightRecord, error) {
	return health.DecodeFlightRecord(data)
}

// ReadRuntimeDelta parses a run's resources.json payload.
func ReadRuntimeDelta(data []byte) (RuntimeDelta, error) {
	var d RuntimeDelta
	err := json.Unmarshal(data, &d)
	return d, err
}

// ChromeTrace converts span records to Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto. Stitched multi-process records render one
// lane (pid) per process.
func ChromeTrace(recs []SpanRecord) ([]byte, error) { return telemetry.ChromeTrace(recs) }

// Causal tracing and the campaign timeline (internal/telemetry +
// internal/timeline): spans carry W3C-traceparent-compatible identities that
// survive the HTTP API and queue boundaries; the timeline assembler stitches
// the archived spans, journal, and run artifacts into a per-campaign
// critical-path profile — the machinery behind `posctl analyze`.
type (
	// SpanTrace is one process's hierarchical span tree (spans.json).
	SpanTrace = telemetry.Trace
	// TraceSpan is one timed region of a SpanTrace; nil-safe methods.
	TraceSpan = telemetry.Span
	// CampaignTimeline is the assembled per-campaign timeline.json: critical
	// path, per-phase attribution, run/replica statistics, stragglers.
	CampaignTimeline = timeline.Timeline
	// TimelineSummary is the critical path + phase attribution core of a
	// CampaignTimeline (also embedded in flight records).
	TimelineSummary = timeline.Summary
	// TimelineDrift is the phase-by-phase comparison of a campaign against
	// a baseline run of the same experiment.
	TimelineDrift = timeline.Drift
)

// NewSpanTrace starts a trace with a fresh trace ID; the root span carries
// name. Install it on a context with TraceContext to instrument work.
func NewSpanTrace(name string) *SpanTrace { return telemetry.NewTrace(name) }

// TraceContext installs the trace's root span as the context's current span:
// client API calls made from the returned context carry the W3C traceparent
// header, and eventlog records are stamped with trace_id/span_id.
func TraceContext(ctx context.Context, tr *SpanTrace) context.Context {
	return telemetry.ContextWithTrace(ctx, tr)
}

// FormatTraceParent renders a trace/span ID pair as a W3C traceparent value.
func FormatTraceParent(traceID, spanID string) string {
	return telemetry.FormatTraceParent(traceID, spanID)
}

// ParseTraceParent decodes a W3C traceparent value; malformed or all-zero
// input yields ok == false (callers fall back to a fresh root, never error).
func ParseTraceParent(s string) (traceID, spanID string, ok bool) {
	return telemetry.ParseTraceParent(s)
}

// WithAPITrace records one server-side span per instrumented API request on
// tr (pass to ServeAPI). Incoming traceparent headers are propagated to
// handlers regardless of this option.
func WithAPITrace(tr *SpanTrace) APIServerOption { return api.WithTrace(tr) }

// AssembleTimeline merges an experiment directory's archives — every
// spans*.json, the event journal, queue admission records, run metadata and
// attempts — into a campaign timeline.
func AssembleTimeline(dir string) (*CampaignTimeline, error) { return timeline.Assemble(dir) }

// WriteTimeline archives tl as timeline.json in dir.
func WriteTimeline(dir string, tl *CampaignTimeline) error { return timeline.Write(dir, tl) }

// ReadSpanArchives loads and stitches every span archive (spans*.json) in an
// experiment directory: the controller's spans.json plus any lanes dropped by
// other processes, joined by their hex parent linkage.
func ReadSpanArchives(dir string) ([]SpanRecord, error) { return timeline.ReadSpans(dir) }

// SummarizeSpans computes critical path and per-phase attribution from span
// records alone (what flight records embed mid-campaign).
func SummarizeSpans(recs []SpanRecord) *TimelineSummary { return timeline.Summarize(recs) }

// CompareTimelines diffs cur against base phase by phase; threshold <= 0
// uses the default (25% growth). Drift.Flagged reports whether any phase —
// or total wall clock — grew past it.
func CompareTimelines(base, cur *CampaignTimeline, threshold float64) *TimelineDrift {
	return timeline.Compare(base, cur, threshold)
}

// CheckArtifact verifies an experiment's result tree is complete enough to
// publish (the mechanical part of artifact evaluation).
func CheckArtifact(exp *ExperimentResults) (publish.CheckReport, error) { return publish.Check(exp) }

// ArtifactCheckReport is the outcome of CheckArtifact.
type ArtifactCheckReport = publish.CheckReport

// Data-plane types, exposed for users building their own topologies.
type (
	// Engine is the deterministic discrete-event clock.
	Engine = sim.Engine
	// LoadGenerator is the MoonGen-style traffic source.
	LoadGenerator = loadgen.Generator
	// LinuxRouter is the emulated software-router DuT.
	LinuxRouter = router.Router
	// LinkConfig describes a physical wire.
	LinkConfig = netem.LinkConfig
	// PerfModel yields a DuT forwarding capacity.
	PerfModel = perfmodel.Model
)

// NewEngine returns a discrete-event engine at virtual time zero.
func NewEngine() *Engine { return sim.NewEngine() }

// NewLoadGenerator returns a dual-port traffic source on the engine.
func NewLoadGenerator(e *Engine, name string, hardwareTimestamps bool) *LoadGenerator {
	return loadgen.New(e, name, hardwareTimestamps)
}

// BareMetalModel is the calibrated pos DuT model (~1.75 Mpps).
func BareMetalModel() PerfModel { return perfmodel.NewBareMetal() }

// VirtualModel is the calibrated vpos DuT model (~0.04 Mpps drop-free).
func VirtualModel(seed uint64) PerfModel { return perfmodel.NewVirtual(seed) }
