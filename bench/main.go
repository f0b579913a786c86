// Command bench is the repository's one repeatable benchmark: four
// closed-loop workloads, ten end-to-end metrics with identical names on each,
// a correctness oracle on every op, and a traced pass that times the calls
// into each layer from outside. README.md in this directory is the manual;
// BENCHMARK.json at the repository root is the contract it is run under.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// workloads in run order; the why is BENCHMARK.json's.
var workloadNames = []string{wAppendix, wQueue, wDataplane, wStore}

func newWorkload(name string) (workload, error) {
	switch name {
	case wAppendix:
		return &appendixCampaign{}, nil
	case wQueue:
		return &queueTenants{}, nil
	case wDataplane:
		return &dataplaneSweep{}, nil
	case wStore:
		return &storeEvalPublish{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// minOps is the floor under which a run's percentiles are not trusted.
const minOps = 300

// setups is how many times a run sets up; setup_s is their median. Three
// set-ups of ≈ 0.9 s and a 30 s window keep the gate's 92 runs inside its hour.
const setups = 3

// environment is recorded with every output, so a number is never read
// without the commit, toolchain and host it was measured on.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	StoreFS    string `json:"store_fs"`
}

func currentEnvironment(scratch string) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		StoreFS:    scratch,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(data))
	}
	return env
}

// scratchRoot picks where stores, journals and archives live. The results
// store's latency on a journalling disk filesystem drifts with the disk's
// state (sizing saw the campaign's p50 climb 85 → 136 ms over three runs on
// ext4 mounted discard, flat on tmpfs), so memory-backed /dev/shm is used
// when it is writable, else a directory inside the checkout.
func scratchRoot(override string) (string, error) {
	candidates := []string{"/dev/shm", ".bench_build"}
	if override != "" {
		candidates = []string{override}
	}
	var err error
	for _, base := range candidates {
		if err = os.MkdirAll(base, 0o755); err != nil {
			continue
		}
		var dir string
		if dir, err = os.MkdirTemp(base, "posbench-"); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no writable scratch directory: %w", err)
}

// record is one run of one workload as written to bench/out and printed.
type record struct {
	Workload  string      `json:"workload"`
	Traced    bool        `json:"traced"`
	Env       environment `json:"env"`
	Seed      uint64      `json:"seed"`
	Seconds   float64     `json:"seconds"`
	SetupsS   []float64   `json:"setups_s"`
	Ops       int         `json:"ops"`
	Attempted int         `json:"ops_attempted"`
	Failed    int         `json:"ops_failed"`
	FirstErr  string      `json:"first_error,omitempty"`
	// Flags marks a run whose numbers should not be trusted: "invalid"
	// reasons (too few ops, steps not covering the op) and "noisy" ones.
	Flags   []string `json:"flags,omitempty"`
	Metrics []metric `json:"metrics"`
	// Slices is the timed window slice by slice: drift and noisy stretches
	// show here; the timing metrics pool the quietest fifth of these.
	Slices []sliceStats `json:"slices,omitempty"`
}

func buildRecord(res *runResult, env environment) record {
	rec := record{
		Workload:  res.cfg.Workload,
		Traced:    res.cfg.Trace,
		Env:       env,
		Seed:      res.cfg.Seed,
		Seconds:   res.wall.Seconds(),
		SetupsS:   res.setups,
		Ops:       len(res.samples),
		Attempted: res.attempted,
		Failed:    res.failed,
	}
	if res.firstErr != nil {
		rec.FirstErr = res.firstErr.Error()
	}
	if res.cfg.Trace {
		rec.Metrics = res.perLayer()
	} else {
		rec.Metrics = res.endToEnd()
		rec.Slices = res.slices()
	}
	if res.cfg.MaxOps <= 0 && rec.Ops < minOps {
		rec.Flags = append(rec.Flags, fmt.Sprintf("invalid: %d ops < %d", rec.Ops, minOps))
	}
	if lo, hi := min(res.calib[0], res.calib[1]), max(res.calib[0], res.calib[1]); hi > lo*1.15 {
		rec.Flags = append(rec.Flags, fmt.Sprintf("noisy: calibration %.1f ms before, %.1f ms after", res.calib[0], res.calib[1]))
	}
	for _, m := range rec.Metrics {
		if m.Name == "harness.cover_ratio" && !m.Missing && (m.Value < 0.95 || m.Value > 1.05) {
			rec.Flags = append(rec.Flags, fmt.Sprintf("invalid: harness.cover_ratio %.3f outside 1 ± 0.05", m.Value))
		}
	}
	return rec
}

func (rec record) print() {
	mode := "end-to-end"
	if rec.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Printf("## %s — %s, seed %d, %.1f s, %d ops (%d attempted, %d failed), commit %s, %s, nproc %d, GOMAXPROCS %d, kernel %s, store_fs %s\n",
		rec.Workload, mode, rec.Seed, rec.Seconds, rec.Ops, rec.Attempted, rec.Failed,
		rec.Env.Commit, rec.Env.GoVersion, rec.Env.NProc, rec.Env.GOMAXPROCS, rec.Env.Kernel, rec.Env.StoreFS)
	for _, f := range rec.Flags {
		fmt.Println("!!", f)
	}
	if rec.FirstErr != "" {
		fmt.Println("!! first failed op:", rec.FirstErr)
	}
	for _, m := range rec.Metrics {
		value := fmt.Sprintf("%.6g", m.Value)
		if m.Missing {
			value = "null"
		}
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Printf("%-36s %14s %-6s%s\n", m.Name, value, m.Unit, n)
	}
}

// contractLine is the last line of standard output the driver reads.
func (rec record) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0 && rec.Attempted > 0, rec.Attempted, rec.Failed, map[string]value{}}
	for _, m := range rec.Metrics {
		v := m.Value
		if m.Missing {
			v = -1 // the contract wants a number; the record says "missing"
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	data, _ := json.Marshal(out)
	return string(data)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// options are the command line.
type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        int
	outDir       string
	scratch      string
	aa           int
	updateGolden string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed the generated inputs derive from")
	flag.Float64Var(&o.seconds, "seconds", 30, "timed window per workload and pass (BENCHMARK.json's run_seconds)")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end pass, 1: traced per-layer pass, -1: both")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for run records and traces")
	flag.StringVar(&o.scratch, "scratch", "", "directory for stores, journals and archives (default: /dev/shm, else the checkout)")
	flag.IntVar(&o.aa, "aa", 0, "A/A mode: two interleaved sets of N full runs of this binary")
	flag.StringVar(&o.updateGolden, "update-golden", "", "regenerate the digests for seeds 1 and 2 into this file")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	names := workloadNames
	if o.workload != "all" {
		if _, err := newWorkload(o.workload); err != nil {
			return err
		}
		names = []string{o.workload}
	}
	passes := []bool{false, true}
	if o.trace >= 0 {
		passes = []bool{o.trace == 1}
	}
	if o.aa > 0 || (o.updateGolden == "" && len(names)*len(passes) > 1) {
		// Several runs: each in a child, which a signal to this process stops.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if o.aa > 0 {
			return runAA(ctx, o, names)
		}
		for _, name := range names {
			for _, traced := range passes {
				cmd := child(ctx, o, name, o.seed, traced)
				cmd.Stdout = os.Stdout
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
			}
		}
		return nil
	}

	dir, err := scratchRoot(o.scratch)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// The scratch tree may sit outside the checkout (on /dev/shm): a killed
	// run must not leave it behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(dir)
		os.Exit(1)
	}()
	if o.updateGolden != "" {
		return writeGolden(o.updateGolden, dir)
	}
	name, traced := names[0], passes[0]
	res, err := runWorkload(runConfig{
		Workload: name, Seed: o.seed, Window: time.Duration(o.seconds * float64(time.Second)),
		Warmup: -1, Setups: setups, Trace: traced, Dir: dir,
	})
	if err != nil {
		return err
	}
	rec := buildRecord(res, currentEnvironment(filepath.Dir(dir)))
	rec.print()
	suffix := "end-to-end"
	if traced {
		suffix = "per-layer"
		if err := writeJSON(filepath.Join(o.outDir, "trace-"+name+".json"), res.spans); err != nil {
			return err
		}
	}
	if err := writeJSON(filepath.Join(o.outDir, name+"-"+suffix+".json"), rec); err != nil {
		return err
	}
	// The driver reads the last line of standard output.
	fmt.Println(rec.contractLine())
	return nil
}

// child is this binary started again for one workload and one pass.
// peak_rss_mb is the process's high-water mark, which never falls, and a
// workload's garbage is the next one's starting heap: so every run gets a
// process of its own, as the driver gives it one.
func child(ctx context.Context, o options, name string, seed uint64, traced bool) *exec.Cmd {
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(o.seconds),
		"--trace", trace, "--out", o.outDir}
	if o.scratch != "" {
		args = append(args, "--scratch", o.scratch)
	}
	self, err := os.Executable()
	if err != nil {
		self = os.Args[0]
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	// SIGTERM, not the default kill: the child removes its scratch tree.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	return cmd
}

// writeGolden runs the first goldenOps ops of every workload for seeds 1
// and 2 and writes their digests.
func writeGolden(path, dir string) error {
	goldenJSON = []byte("{}")
	out := map[string]map[string][]string{}
	for _, name := range workloadNames {
		out[name] = map[string][]string{}
		for _, seed := range []uint64{1, 2} {
			res, err := runWorkload(runConfig{Workload: name, Seed: seed, MaxOps: goldenOps, Warmup: 0, Setups: 1, Dir: dir})
			if err != nil {
				return err
			}
			if res.failed > 0 {
				return fmt.Errorf("%s seed %d: %v", name, seed, res.firstErr)
			}
			o := res.w.oracleState()
			digests := o.seen
			if o.repeats {
				digests = digests[:1]
			}
			out[name][fmt.Sprint(seed)] = digests
		}
	}
	return writeJSON(path, out)
}
