// Command posctl is the operator CLI of the pos toolchain:
//
//	posctl images                         list the built-in live images
//	posctl table                          print Table 1 (testbed comparison)
//	posctl expand -vars "a=1,2;b=x,y"     show the cross-product of loop vars
//	posctl run -f campaign.yml            run a campaign spec end to end
//	posctl submit -addr HOST:PORT -f FILE queue a campaign on a controller
//	posctl queue -addr HOST:PORT          show a controller's campaign queue
//	posctl cancel -addr HOST:PORT -id N   cancel a queued or running campaign
//	posctl watch -addr HOST:PORT          stream a controller's live events
//	posctl watch -dir DIR                 replay a finished experiment's journal
//	posctl analyze DIR [-chrome OUT]      where a campaign's time went (read-only)
//	posctl results -dir DIR [flags]       inspect a results tree
//	posctl publish -dir DIR [flags]       bundle an experiment for release
//
// A campaign.yml holds everything about a campaign but its scripts: the
// platform and seed, the case-study sweep, replicas, retries and quarantine,
// the router chain and a pinned epoch. run, runfile, ndr, repeat and submit
// take it as -f, serve as -campaign; without one the spec's defaults apply.
// Run `posctl <command> -h` for per-command flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"pos/internal/api"
	"pos/internal/casestudy"
	"pos/internal/compare"
	"pos/internal/core"
	"pos/internal/eval"
	"pos/internal/eventlog"
	"pos/internal/expfile"
	"pos/internal/health"
	"pos/internal/image"
	"pos/internal/ndr"
	"pos/internal/plot"
	"pos/internal/publish"
	"pos/internal/queue"
	"pos/internal/repeat"
	"pos/internal/results"
	"pos/internal/telemetry"
	"pos/internal/testbed"
	"pos/internal/topo"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "images":
		err = cmdImages()
	case "table":
		err = compare.Write(os.Stdout)
	case "expand":
		err = cmdExpand(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "results":
		err = cmdResults(os.Args[2:])
	case "index":
		err = cmdIndex(os.Args[2:])
	case "publish":
		err = cmdPublish(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "topo":
		err = cmdTopo(os.Args[2:])
	case "runfile":
		err = cmdRunFile(os.Args[2:])
	case "plot":
		err = cmdPlot(os.Args[2:])
	case "ndr":
		err = cmdNDR(os.Args[2:])
	case "repeat":
		err = cmdRepeat(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "queue":
		err = cmdQueue(os.Args[2:])
	case "cancel":
		err = cmdCancel(os.Args[2:])
	case "metrics":
		err = cmdMetrics(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "watch":
		err = cmdWatch(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: posctl <command> [flags]

commands:
  images     list the built-in live images
  table      print Table 1 (testbed/methodology comparison)
  expand     show the measurement runs a loop-variable spec expands into
  run        execute a campaign spec (-f campaign.yml) end to end
  runfile    execute an experiment loaded from a directory (published layout)
  ndr        binary-search the device's non-drop rate (RFC 2544 style)
  repeat     run an experiment repeatedly and report the deviation
  serve      expose the controller HTTP API for a demo testbed
  submit     queue a campaign on a serving controller
  queue      show a controller's campaign queue (live state)
  cancel     cancel a queued campaign or preempt a running one
  metrics    scrape a controller's telemetry once (/metrics or JSON snapshot)
  top        live terminal dashboard: health probes, key metrics, event tail
  watch      stream a controller's live events (-addr, SSE) or replay a
             finished experiment's event journal (-dir)
  analyze    assemble a campaign timeline: critical path, phase attribution,
             stragglers; -baseline diffs phase-by-phase and fails on drift;
             -chrome writes spans.json as a Chrome trace. Never writes into
             the experiment
  results    inspect a results tree
  index      inspect or rebuild an experiment's run manifest and dedup pool
  plot       generate throughput figures from an experiment's results
  check      verify an experiment's artifact completeness
  diff       compare two experiment result trees byte for byte
  topo       validate and canonicalize a topology description
  publish    bundle an experiment for release`)
}

func cmdImages() error {
	img := image.DefaultDebianBuster()
	fmt.Printf("%s\n  kernel %s\n  packages:\n", img.Ref(), img.Kernel)
	for name, ver := range img.Packages {
		fmt.Printf("    %-24s %s\n", name, ver)
	}
	return nil
}

func cmdExpand(args []string) error {
	fs := flag.NewFlagSet("expand", flag.ExitOnError)
	spec := fs.String("vars", "", `loop variables, e.g. "pkt_sz=64,1500;pkt_rate=10000,20000"`)
	fs.Parse(args)
	if *spec == "" {
		return fmt.Errorf("expand: -vars required")
	}
	vars, err := parseLoopVars(*spec)
	if err != nil {
		return err
	}
	combos, err := core.CrossProduct(vars)
	if err != nil {
		return err
	}
	fmt.Printf("%d measurement runs:\n", len(combos))
	for i, c := range combos {
		fmt.Printf("  run %3d: %s\n", i, c.Key())
	}
	return nil
}

func parseLoopVars(spec string) ([]core.LoopVar, error) {
	var vars []core.LoopVar
	for _, part := range strings.Split(spec, ";") {
		name, vals, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad loop variable %q (want name=v1,v2)", part)
		}
		vars = append(vars, core.LoopVar{Name: name, Values: strings.Split(vals, ",")})
	}
	return vars, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	spec := specFlag(fs)
	dir := fs.String("results", "", "results root (default: temp dir)")
	durable := fs.Bool("durable", false, "fsync result files and directories on every write")
	fs.Parse(args)
	s, err := spec()
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	var storeOpts []results.Option
	if *durable {
		storeOpts = append(storeOpts, results.Durable())
	}
	store, err := openStore(*dir, "posctl-run-*", storeOpts...)
	if err != nil {
		return err
	}
	return launch(s, nil, store)
}

// specFlag declares -f, the campaign.yml a command runs, and returns its
// loader: without -f the spec's defaults apply.
func specFlag(fs *flag.FlagSet) func() (casestudy.Spec, error) {
	path := fs.String("f", "", "campaign spec file (campaign.yml; default: the spec's defaults)")
	return func() (casestudy.Spec, error) { return loadSpec(*path) }
}

// loadSpec reads and validates a campaign.yml; "" means the defaults.
func loadSpec(path string) (casestudy.Spec, error) {
	if path == "" {
		return casestudy.DefaultSpec(), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return casestudy.Spec{}, err
	}
	return casestudy.ParseSpec(data)
}

// openStore opens the results store at root, or at a fresh temp directory
// named after pattern when root is empty.
func openStore(root, pattern string, opts ...results.Option) (*results.Store, error) {
	if root == "" {
		var err error
		if root, err = os.MkdirTemp("", pattern); err != nil {
			return nil, err
		}
	}
	return results.NewStore(root, opts...)
}

// launch runs the spec — on exp when given, else its case-study sweep —
// with the console watching the event pipeline the experiment journals
// under events/.
func launch(spec casestudy.Spec, exp *core.Experiment, store *results.Store) error {
	if spec.Epoch != "" {
		// Span durations measure real elapsed time; with the clock pinned
		// they are the one artifact that cannot reproduce, so drop them.
		telemetry.Default.SetEnabled(false)
	}
	if spec.Chain > 0 {
		fmt.Printf("router chain: %d routers in %d cluster(s)\n", spec.Chain, spec.Clusters)
	}
	events := eventlog.NewPipeline()
	stop := events.Watch(0, printProgress)
	sum, err := casestudy.Launch(context.Background(), spec, exp, store, events)
	stop()
	if err != nil {
		return err
	}
	fmt.Printf("%d runs complete (%d failed, %d cancelled) across %d replica(s)\n",
		sum.TotalRuns, sum.FailedRuns, sum.CancelledRuns, spec.Replicas)
	if len(sum.Quarantined) > 0 {
		fmt.Printf("quarantined replicas: %s\n", strings.Join(sum.Quarantined, ", "))
	}
	fmt.Printf("results: %s\n", sum.ResultsDir)
	fmt.Printf("event journal: %s (replay with posctl watch -dir %s)\n",
		filepath.Join(sum.ResultsDir, "events"), sum.ResultsDir)
	return nil
}

// printProgress is the console's view of a local run: every workflow step,
// rendered exactly as posctl watch -dir replays it from the journal.
func printProgress(ev eventlog.Event) {
	if ev.Typ == "progress" {
		fmt.Println(renderEvent(ev))
	}
}

// cmdDiff compares two experiment result trees byte for byte — the check
// behind reproducibility: the same spec with the same seed and epoch must
// publish identical artifacts, run after run and build after build.
func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	a := fs.String("a", "", "first experiment directory (required)")
	b := fs.String("b", "", "second experiment directory (required)")
	fs.Parse(args)
	if *a == "" || *b == "" {
		return fmt.Errorf("diff: -a and -b required")
	}
	diffs, err := compare.DiffExperiments(*a, *b)
	if err != nil {
		return err
	}
	if len(diffs) == 0 {
		fmt.Println("result trees are byte-identical")
		return nil
	}
	for _, d := range diffs {
		fmt.Println(d)
	}
	return fmt.Errorf("diff: %d path(s) differ", len(diffs))
}

func cmdRunFile(args []string) error {
	fs := flag.NewFlagSet("runfile", flag.ExitOnError)
	dir := fs.String("dir", "", "experiment directory (required)")
	spec := specFlag(fs)
	loadgenNode := fs.String("loadgen", "", "node to bind the loadgen role (default: host.yml)")
	dutNode := fs.String("dut", "", "node to bind the dut role (default: host.yml)")
	resultsRoot := fs.String("results", "", "results root (default: temp dir)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("runfile: -dir required")
	}
	s, err := spec()
	if err != nil {
		return fmt.Errorf("runfile: %w", err)
	}
	bindings := map[string]string{}
	if *loadgenNode != "" {
		bindings["loadgen"] = *loadgenNode
	}
	if *dutNode != "" {
		bindings["dut"] = *dutNode
	}
	exp, err := expfile.Load(*dir, bindings)
	if err != nil {
		return err
	}
	store, err := openStore(*resultsRoot, "posctl-runfile-*")
	if err != nil {
		return err
	}
	return launch(s, exp, store)
}

func cmdNDR(args []string) error {
	fs := flag.NewFlagSet("ndr", flag.ExitOnError)
	spec := specFlag(fs)
	size := fs.Int("size", 64, "frame size in bytes")
	minRate := fs.Float64("min", 10_000, "bracket floor in pps")
	maxRate := fs.Float64("max", 2_500_000, "bracket ceiling in pps")
	acceptLoss := fs.Float64("accept-loss", 0, "acceptable loss ratio")
	fs.Parse(args)
	s, err := spec()
	if err != nil {
		return fmt.Errorf("ndr: %w", err)
	}
	topo, err := s.Build()
	if err != nil {
		return err
	}
	defer topo.Close()
	res, err := ndr.Search(ndr.Config{
		MinPPS: *minRate, MaxPPS: *maxRate, AcceptLoss: *acceptLoss, Precision: 0.005,
	}, func(rate float64) (float64, error) {
		p, err := topo.DirectRun(*size, rate, 1)
		if err != nil {
			return 0, err
		}
		fmt.Printf("  trial %9.0f pps: loss %.5f\n", rate, p.LossRatio)
		return p.LossRatio, nil
	})
	if err != nil {
		return err
	}
	fmt.Println(res.Summary())
	return nil
}

// cmdRepeat launches the spec -n times, as posctl run does, and compares
// the executions' MoonGen logs run by run.
func cmdRepeat(args []string) error {
	fs := flag.NewFlagSet("repeat", flag.ExitOnError)
	spec := specFlag(fs)
	reps := fs.Int("n", 3, "number of repetitions")
	fs.Parse(args)
	s, err := spec()
	if err != nil {
		return fmt.Errorf("repeat: %w", err)
	}
	// A store per execution: under a pinned epoch, two executions in one
	// store would record into one directory.
	execute := func(ctx context.Context) (*core.Summary, error) {
		store, err := openStore("", "posctl-repeat-*")
		if err != nil {
			return nil, err
		}
		return casestudy.Launch(ctx, s, nil, store, nil)
	}
	rep, err := repeat.Verify(context.Background(), execute,
		repeat.Config{Repetitions: *reps, Node: casestudy.LoadGenNode, Artifact: "moongen.log"})
	if err != nil {
		return err
	}
	os.Stdout.Write(rep.Render())
	return nil
}

// awaitShutdown blocks until SIGINT/SIGTERM, then drains the server through
// shutdown with a bounded grace window — in-flight handlers finish, new
// connections are refused immediately.
func awaitShutdown(shutdown func(context.Context) error) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // restore default handling: a second Ctrl-C kills immediately
	fmt.Println("\nshutting down, draining in-flight requests (Ctrl-C again to force)")
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	return shutdown(sctx)
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	nodes := fs.String("nodes", "vriga,vtartu,vvilnius", "node names to create")
	resultsDir := fs.String("results", "", "results root to expose read-only (optional)")
	debug := fs.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")
	queueOn := fs.Bool("queue", true, "run the multi-tenant campaign queue (posctl submit/queue/cancel)")
	campaign := fs.String("campaign", "", "also run the campaign this spec file (campaign.yml) describes, streaming its events")
	fs.Parse(args)
	var spec casestudy.Spec
	if *campaign != "" {
		var err error
		if spec, err = loadSpec(*campaign); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	tb := testbed.New()
	defer tb.Close()
	if err := tb.Images.Add(image.DefaultDebianBuster()); err != nil {
		return err
	}
	for _, n := range strings.Split(*nodes, ",") {
		if _, err := tb.AddNode(strings.TrimSpace(n)); err != nil {
			return err
		}
	}
	var opts []api.ServerOption
	if *debug {
		opts = append(opts, api.WithDebug())
	}
	srv, err := api.Serve(tb, opts...)
	if err != nil {
		return err
	}
	events := eventlog.NewPipeline()
	srv.SetEvents(events)

	// Health layer: runtime sampler feeding pos_runtime_* metrics, a flight
	// recorder tailing the live event stream, and a watchdog over the
	// standard probes. A trip (or SIGQUIT) dumps flightrec-<ts>.json for
	// post-mortem without a live debugger.
	sampler := telemetry.NewRuntimeSampler(telemetry.Default, 2*time.Second)
	sampler.Start()
	defer sampler.Stop()
	flightRec := health.NewRecorder(0, telemetry.Default)
	defer flightRec.Attach(events)()
	wd := health.NewWatchdog(5 * time.Second)
	wd.SetEvents(events)
	dumpFlight := func(trigger, probe, detail string) {
		path, err := writeFlightRecord(".", time.Now(), flightRec.Capture(trigger, probe, detail))
		if err != nil {
			fmt.Fprintln(os.Stderr, "flight record:", err)
			return
		}
		fmt.Println("flight record written to", path)
	}
	wd.SetOnTrip(func(ps health.ProbeState) {
		dumpFlight(health.TriggerWatchdog, ps.Name, ps.Detail)
	})
	wd.Register(health.CampaignProgress(telemetry.Default, 2*time.Minute))
	wd.Register(health.QueueStarvation(telemetry.Default, 10, time.Minute))
	wd.Register(health.EventDrops(telemetry.Default, 1000, time.Minute))
	wd.Start()
	defer wd.Stop()
	srv.SetHealth(wd)
	sigquit := make(chan os.Signal, 1)
	signal.Notify(sigquit, syscall.SIGQUIT)
	defer signal.Stop(sigquit)
	go func() {
		for range sigquit {
			dumpFlight(health.TriggerSignal, "", "operator-requested dump")
		}
	}()

	var store *results.Store
	if *resultsDir != "" {
		if store, err = results.NewStore(*resultsDir); err != nil {
			return err
		}
		srv.SetResults(store)
		fmt.Println("results endpoints enabled for", *resultsDir)
	}
	if store == nil && (*queueOn || *campaign != "") {
		if store, err = openStore("", "posctl-serve-*"); err != nil {
			return err
		}
		srv.SetResults(store)
		fmt.Println("campaign results under", store.Root())
	}
	if *queueOn {
		qdir, err := store.ControlDir("queue")
		if err != nil {
			return err
		}
		q, err := queue.Open(queue.Config{
			Dir:      qdir,
			Calendar: tb.Calendar,
			Events:   events,
			Launch:   queueLaunch(store),
		})
		if err != nil {
			return err
		}
		defer q.Close()
		srv.SetQueue(q)
		fmt.Printf("campaign queue on /api/v1/campaigns — posctl submit -addr %s -user alice -nodes %s\n",
			srv.Addr(), *nodes)
	}
	if *campaign != "" {
		go func() {
			sum, err := casestudy.Launch(context.Background(), spec, nil, store, events)
			if err != nil {
				fmt.Println("campaign failed:", err)
				return
			}
			fmt.Printf("campaign done: %d runs (%d failed), results %s\n",
				sum.TotalRuns, sum.FailedRuns, sum.ResultsDir)
		}()
		fmt.Printf("campaign %s: %s, %d replica(s)\n", *campaign, spec.Flavor, spec.Replicas)
	}
	fmt.Printf("pos controller API on http://%s/api/v1/ (nodes: %s)\n", srv.Addr(), *nodes)
	fmt.Println("telemetry on /metrics (Prometheus) and /api/v1/metrics (JSON)")
	fmt.Printf("health probes on /api/v1/health — posctl top -addr %s (SIGQUIT dumps a flight record)\n", srv.Addr())
	fmt.Printf("live events on /api/v1/events (SSE) — posctl watch -addr %s\n", srv.Addr())
	if *debug {
		fmt.Println("pprof on /debug/pprof/")
	}
	fmt.Println("press Ctrl-C to stop")
	return awaitShutdown(srv.Shutdown)
}

// writeFlightRecord dumps fr into dir as flightrec-<second>.json, named by
// at. The file is created exclusively and a second dump in the same second
// takes the first free -1, -2, ... suffix, so incidents never overwrite each
// other: two probes tripping in one watchdog pass, or a trip and a SIGQUIT.
func writeFlightRecord(dir string, at time.Time, fr health.FlightRecord) (string, error) {
	data, err := fr.Encode()
	if err != nil {
		return "", err
	}
	base := filepath.Join(dir, "flightrec-"+at.Format("20060102T150405"))
	for n := 0; ; n++ {
		path := base + ".json"
		if n > 0 {
			path = fmt.Sprintf("%s-%d.json", base, n)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return "", err
		}
		_, err = f.Write(data)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return path, err
	}
}

// cmdMetrics prints one telemetry snapshot; posctl top is the live view.
func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	addr := fs.String("addr", "", "controller API address host:port (required)")
	raw := fs.Bool("raw", false, "print the Prometheus text exposition verbatim")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("metrics: -addr required (the host:port printed by posctl serve)")
	}
	c := api.NewClient(*addr)
	if *raw {
		text, err := c.MetricsText()
		if err != nil {
			return err
		}
		os.Stdout.Write(text)
		return nil
	}
	snap, err := c.Metrics()
	if err != nil {
		return err
	}
	for _, m := range snap.Metrics {
		fmt.Printf("%s (%s)\n", m.Name, m.Type)
		for _, v := range m.Values {
			var labels string
			if len(v.Labels) > 0 {
				parts := make([]string, 0, len(v.Labels))
				for _, k := range sortedKeys(v.Labels) {
					parts = append(parts, k+"="+v.Labels[k])
				}
				labels = "{" + strings.Join(parts, ",") + "}"
			}
			if m.Type == "histogram" {
				mean := 0.0
				if v.Count > 0 {
					mean = v.Sum / float64(v.Count)
				}
				line := fmt.Sprintf("  %-50s count %d  sum %.6g  mean %.6g", labels, v.Count, v.Sum, mean)
				if len(v.Quantiles) > 0 {
					line += fmt.Sprintf("  p50 %.6g  p90 %.6g  p99 %.6g",
						v.Quantiles["p50"], v.Quantiles["p90"], v.Quantiles["p99"])
				}
				fmt.Println(line)
			} else {
				fmt.Printf("  %-50s %g\n", labels, v.Value)
			}
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func cmdResults(args []string) error {
	fs := flag.NewFlagSet("results", flag.ExitOnError)
	dir := fs.String("dir", "", "results root (required)")
	user := fs.String("user", "user", "experiment owner")
	name := fs.String("exp", "", "experiment name (empty: list nothing but hint)")
	id := fs.String("id", "", "experiment id (empty: list ids)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("results: -dir required")
	}
	store, err := results.NewStore(*dir)
	if err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("results: -exp required (experiment name, e.g. linux-router-pos)")
	}
	ids, err := store.ListExperiments(*user, *name)
	if err != nil {
		return err
	}
	if *id == "" {
		fmt.Printf("%d executions of %s/%s:\n", len(ids), *user, *name)
		for _, i := range ids {
			fmt.Println(" ", i)
		}
		return nil
	}
	exp, err := store.OpenExperiment(*user, *name, *id)
	if err != nil {
		return err
	}
	runs, err := exp.Runs()
	if err != nil {
		return err
	}
	fmt.Printf("experiment %s: %d runs\n", *id, len(runs))
	for _, run := range runs {
		meta, err := exp.ReadRunMeta(run)
		if err != nil {
			return err
		}
		status := "ok"
		if meta.Failed {
			status = "FAILED: " + meta.Error
		}
		arts, _ := exp.RunArtifacts(run)
		fmt.Printf("  run %3d  %-40s %d artifacts  %s\n", run, metaKey(meta), len(arts), status)
	}
	return nil
}

func cmdIndex(args []string) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	ref := experimentFlags(fs)
	rebuild := fs.Bool("rebuild", false, "rebuild the manifest from the on-disk tree")
	gc := fs.Bool("gc", false, "remove unreferenced blobs from the dedup pool")
	fs.Parse(args)
	store, exp, err := ref.openExperiment()
	if err != nil {
		return err
	}
	if *rebuild {
		if err := exp.RebuildIndex(); err != nil {
			return err
		}
		fmt.Println("manifest rebuilt from tree")
	}
	info, err := exp.IndexInfo()
	if err != nil {
		return err
	}
	fmt.Printf("experiment %s/%s/%s\n", ref.user, ref.name, exp.ID())
	fmt.Printf("  manifest generation  %d\n", info.Generation)
	fmt.Printf("  runs                 %d\n", info.Runs)
	fmt.Printf("  run artifacts        %d\n", info.RunArtifacts)
	fmt.Printf("  experiment artifacts %d\n", info.ExperimentArtifacts)
	if *gc {
		removed, err := store.GCBlobs()
		if err != nil {
			return err
		}
		fmt.Printf("  blobs reclaimed      %d\n", removed)
	}
	stats, err := store.BlobStats()
	if err != nil {
		return err
	}
	fmt.Printf("dedup pool: %d blobs, %d bytes, %d referenced\n", stats.Blobs, stats.Bytes, stats.Referenced)
	return nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	ref := experimentFlags(fs)
	fs.Parse(args)
	_, exp, err := ref.openExperiment()
	if err != nil {
		return err
	}
	rep, err := publish.Check(exp)
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	if !rep.OK() {
		os.Exit(1)
	}
	return nil
}

// cmdTopo lints a topology description. topo.Parse makes every check
// topo.Build makes, so an accepted file builds.
func cmdTopo(args []string) error {
	fs := flag.NewFlagSet("topo", flag.ExitOnError)
	file := fs.String("file", "", "topology description (required)")
	fs.Parse(args)
	if *file == "" {
		return fmt.Errorf("topo: -file required")
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	spec, err := topo.Parse(data)
	if err != nil {
		return err
	}
	fmt.Printf("%d devices, %d links\n", len(spec.Devices), len(spec.Links))
	direct, switches := spec.DirectlyWired()
	if direct {
		fmt.Println("wiring: direct, non-switched (pos discipline, R2)")
	} else {
		fmt.Printf("wiring: switched via %v — experiment isolation is weakened (R2)\n", switches)
	}
	fmt.Print("canonical form:\n" + string(spec.Render()))
	return nil
}

func metaKey(meta results.RunMeta) string {
	c := core.Combination(meta.LoopVars)
	return c.Key()
}

// cmdPlot renders an experiment's throughput figure the way Fig. 3 draws it:
// received over offered Mpps (the pkt_rate loop variable), one series per
// frame size (pkt_sz).
func cmdPlot(args []string) error {
	fs := flag.NewFlagSet("plot", flag.ExitOnError)
	ref := experimentFlags(fs)
	node := fs.String("node", casestudy.LoadGenNode, "node whose MoonGen logs to parse")
	artifact := fs.String("artifact", "moongen.log", "per-run artifact to parse")
	title := fs.String("title", "", "figure title (default: experiment name)")
	fs.Parse(args)
	_, exp, err := ref.openExperiment()
	if err != nil {
		return err
	}
	runs, err := eval.LoadRuns(exp, *node, *artifact)
	if err != nil {
		return err
	}
	series, err := eval.ThroughputSeries(runs, "pkt_sz", "pkt_rate", 1e-6)
	if err != nil {
		return err
	}
	if len(series) == 0 {
		return fmt.Errorf("plot: no parseable runs (node %q, artifact %q)", *node, *artifact)
	}
	figTitle := *title
	if figTitle == "" {
		figTitle = ref.name
	}
	files := plot.ExportNamed("figures/throughput", plot.Throughput(figTitle, series))
	names := sortedKeys(files)
	for _, fname := range names {
		if err := exp.AddExperimentArtifact(fname, files[fname]); err != nil {
			return err
		}
	}
	// Small artifacts are written behind the manifest: land them before the
	// process exits.
	if err := exp.Sync(); err != nil {
		return err
	}
	for _, fname := range names {
		fmt.Println("wrote", exp.Dir()+"/"+fname)
	}
	return nil
}

func cmdPublish(args []string) error {
	fs := flag.NewFlagSet("publish", flag.ExitOnError)
	ref := experimentFlags(fs)
	out := fs.String("out", "", "archive path (default: <exp>-<id>.tar.gz)")
	fs.Parse(args)
	_, exp, err := ref.openExperiment()
	if err != nil {
		return err
	}
	dest := *out
	if dest == "" {
		dest = ref.name + "-" + exp.ID() + ".tar.gz"
	}
	m, err := publish.Release(exp, ref.user, ref.name, dest)
	if err != nil {
		return err
	}
	fmt.Printf("published %d files (%d runs, %d failed) -> %s\n", len(m.Files), m.Runs, m.FailedRuns, dest)
	return nil
}

// experimentRef names one recorded experiment: the -dir/-user/-exp/-id flag
// group of the commands that read a results tree.
type experimentRef struct {
	cmd, dir, user, name, id string
}

// experimentFlags declares the experiment flag group on fs.
func experimentFlags(fs *flag.FlagSet) *experimentRef {
	r := &experimentRef{cmd: fs.Name()}
	fs.StringVar(&r.dir, "dir", "", "results root (required)")
	fs.StringVar(&r.user, "user", "user", "experiment owner")
	fs.StringVar(&r.name, "exp", "", "experiment name (required)")
	fs.StringVar(&r.id, "id", "", "experiment id (default: latest)")
	return r
}

// openExperiment opens the named experiment — its latest execution when -id
// is unset — and the store holding it.
func (r *experimentRef) openExperiment() (*results.Store, *results.Experiment, error) {
	if r.dir == "" || r.name == "" {
		return nil, nil, fmt.Errorf("%s: -dir and -exp required", r.cmd)
	}
	store, err := results.NewStore(r.dir)
	if err != nil {
		return nil, nil, err
	}
	id := r.id
	if id == "" {
		ids, err := store.ListExperiments(r.user, r.name)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", r.cmd, err)
		}
		if len(ids) == 0 {
			return nil, nil, fmt.Errorf("%s: no executions of %s/%s found", r.cmd, r.user, r.name)
		}
		id = ids[len(ids)-1]
	}
	exp, err := store.OpenExperiment(r.user, r.name, id)
	return store, exp, err
}
