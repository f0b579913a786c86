package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"pos/internal/eval"
	"pos/internal/plot"
	"pos/internal/publish"
	"pos/internal/results"
)

// storeEvalPublish is what happens after a campaign: ingest a 60-run
// result set, evaluate it (cold, then warm), plot, check and publish. It
// writes beside reads on results; moonparse, the eval cache, plot and the
// publish prefetch/gzip path dominate, while sim and the control plane do
// nothing — so a results-store change that helps ingest and hurts
// enumeration or publish shows here, and must leave dataplane_sweep unmoved.
type storeEvalPublish struct {
	*oracle
	dir string
	n   int
	// Fixtures, generated from the seed in setup: the program under test
	// only ever sees these bytes.
	logs     [60][]byte // unique per run
	latency  [2][]byte  // one content per frame size: the dedup case
	captures [60][]byte // unique, above the store's 4 KiB dedup floor
}

// The fixture keeps the shape of a 60-run campaign (file count, one dedup
// hit per run) with file sizes chosen so an op stays under 80 ms: a run
// needs at least 300 ops for its percentiles.
const (
	storeRuns      = 60
	logSeconds     = 30
	latencySamples = 1_000
)

func (w *storeEvalPublish) steps() [3]string { return [3]string{"ingest", "evaluate", "publish"} }
func (w *storeEvalPublish) warmup() int      { return 16 }
func (w *storeEvalPublish) clients() int     { return 1 }

func (w *storeEvalPublish) setup(seed uint64, dir string) (err error) {
	w.dir = dir
	if w.oracle, err = newOracle("store_eval_publish", seed, true); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	for run := range w.logs {
		w.logs[run] = moonGenLog(rng, run)
		capture := make([]byte, 4096+run)
		rng.Read(capture)
		w.captures[run] = capture
	}
	for i := range w.latency {
		var b bytes.Buffer
		base := 9000 + 20000*i
		for s := 0; s < latencySamples; s++ {
			fmt.Fprintf(&b, "%d\n", base+rng.Intn(30000))
		}
		w.latency[i] = b.Bytes()
	}
	return nil
}

// moonGenLog renders one run's MoonGen log: logSeconds per-second samples for both
// devices with interleaved application noise, then totals and latency.
func moonGenLog(rng *rand.Rand, run int) []byte {
	var b bytes.Buffer
	mpps := 0.1 + float64(run/2)*0.03
	for s := 0; s < logSeconds; s++ {
		tx := mpps + float64(rng.Intn(100))/1e4
		rx := tx - float64(rng.Intn(50))/1e4
		fmt.Fprintf(&b, "[Device: id=0] TX: %.4f Mpps, %.2f Mbit/s (%.2f Mbit/s with framing)\n", tx, tx*512, tx*672)
		fmt.Fprintf(&b, "[Device: id=1] RX: %.4f Mpps, %.2f Mbit/s (%.2f Mbit/s with framing)\n", rx, rx*512, rx*672)
		if s%5 == 0 {
			fmt.Fprintf(&b, "app log: worker %d heartbeat ok\n", rng.Intn(1000))
		}
	}
	pkts := int64(mpps * logSeconds * 1e6)
	fmt.Fprintf(&b, "[Device: id=0] TX: %.4f Mpps (StdDev 0.0002), total %d packets, %d bytes\n", mpps, pkts, pkts*64)
	fmt.Fprintf(&b, "[Device: id=1] RX: %.4f Mpps (StdDev 0.0005), total %d packets, %d bytes\n", mpps*0.999, pkts-pkts/1000, (pkts-pkts/1000)*64)
	fmt.Fprintf(&b, "[Latency] avg: %d ns, min: 9000 ns, max: 40000 ns, samples: 100000\n", 12000+rng.Intn(1000))
	return b.Bytes()
}

func (w *storeEvalPublish) finish() map[string]float64 { return nil }
func (w *storeEvalPublish) teardown()                  { os.RemoveAll(w.dir) }

func loopVars(run int) map[string]string {
	return map[string]string{
		"pkt_sz":   strconv.Itoa(64 + run%2*1436),
		"pkt_rate": strconv.Itoa((run/2 + 1) * 10_000),
	}
}

func (w *storeEvalPublish) burst(_ int, tr *tracer) burstResult {
	root := filepath.Join(w.dir, fmt.Sprintf("op%06d", w.n))
	w.n++
	op := startOp(tr, w.steps())
	fail := func(err error) burstResult {
		res := op.abort(err)
		os.RemoveAll(root)
		return burstResult{ops: []opResult{res}}
	}

	// ingest
	tr.begin("results.ingest")
	store, err := results.NewStore(filepath.Join(root, "store"))
	if err != nil {
		return fail(err)
	}
	exp, err := store.CreateExperiment("user", "ingest", time.Now())
	if err != nil {
		return fail(err)
	}
	for run := 0; run < storeRuns; run++ {
		if err = exp.AddRunArtifact(run, "loadgen", "moongen.log", w.logs[run]); err == nil {
			err = exp.AddRunArtifact(run, "loadgen", "latency.csv", w.latency[run%2])
		}
		if err == nil {
			err = exp.AddRunArtifact(run, "dut", "capture.out", w.captures[run])
		}
		if err == nil {
			err = exp.WriteRunMeta(results.RunMeta{Run: run, LoopVars: loopVars(run)})
		}
		if err != nil {
			return fail(err)
		}
	}
	tr.end()
	tr.begin("results.Sync")
	err = exp.Sync()
	tr.end()
	if err != nil {
		return fail(err)
	}
	op.next()

	// evaluate: cold, then warm, then the figures
	var runs []eval.RunData
	var lat map[string][]float64
	for _, pass := range []string{"eval.cold", "eval.warm"} {
		tr.begin(pass)
		runs, err = eval.LoadRuns(exp, "loadgen", "moongen.log")
		if err == nil {
			lat, err = eval.LoadLatency(exp, "loadgen", "latency.csv")
		}
		tr.end()
		if err != nil {
			return fail(err)
		}
	}
	tr.begin("eval.ThroughputSeries")
	series, err := eval.ThroughputSeries(runs, "pkt_sz", "pkt_rate", 1e-6)
	tr.end()
	if err != nil {
		return fail(err)
	}
	tr.begin("plot.Export")
	tput := plot.Export(plot.Throughput("throughput", series))
	cdf := plot.Export(plot.LatencyCDF("latency", cdfSelection(lat)))
	tr.end()
	op.next()

	// publish
	tr.begin("publish.Check")
	report, err := publish.Check(exp)
	tr.end()
	if err != nil {
		return fail(err)
	}
	archive := filepath.Join(root, "release.tar.gz")
	tr.begin("publish.Release")
	manifest, err := publish.Release(exp, "user", "ingest", archive)
	tr.end()
	if err != nil {
		return fail(err)
	}
	res := op.stop()

	houseStart := time.Now()
	info, err := os.Stat(archive)
	switch {
	case err != nil:
	case len(runs) != storeRuns || len(lat) != storeRuns || report.RunsChecked != storeRuns || manifest.Runs != storeRuns:
		err = fmt.Errorf("store: %d runs parsed, %d latency sets, %d checked, %d published",
			len(runs), len(lat), report.RunsChecked, manifest.Runs)
	case info.Size() == 0:
		err = fmt.Errorf("store: empty archive")
	default:
		res.digest = storeDigest(runs, lat, manifest, tput["csv"], cdf["csv"])
		err = w.check(res.digest)
	}
	if err != nil {
		res = opResult{err: err}
	} else {
		res.layer = map[string]float64{
			"archive_mb": float64(info.Size()) / 1e6,
			"files":      float64(len(manifest.Files)),
		}
	}
	os.RemoveAll(root)
	return burstResult{ops: []opResult{res}, house: time.Since(houseStart)}
}

// cdfSelection picks the latency figure's series the way the paper's plot
// does: one offered rate, one line per frame size.
func cdfSelection(lat map[string][]float64) map[string][]float64 {
	out := map[string][]float64{}
	for _, key := range []string{"pkt_rate=100000,pkt_sz=64", "pkt_rate=100000,pkt_sz=1500"} {
		out[key] = lat[key]
	}
	return out
}

// storeDigest hashes what evaluation and publication derived from the
// fixtures: parsed rates per run, the latency samples, the manifest counts
// and the exported figure data.
func storeDigest(runs []eval.RunData, lat map[string][]float64, m publish.Manifest, figs ...[]byte) string {
	h := newHasher()
	for _, r := range runs {
		if r.Report == nil {
			h.printf("run %d no report\n", r.Run)
			continue
		}
		h.printf("run %d %v samples=%d rx=%v tx=%v\n", r.Run, r.Failed, len(r.Report.Samples), r.Report.RxMpps(), r.Report.TxMpps())
	}
	keys := make([]string, 0, len(lat))
	for k := range lat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h.printf("%s %d|", k, len(lat[k]))
		h.floats(lat[k])
	}
	h.printf("manifest files=%d runs=%d failed=%d\n", len(m.Files), m.Runs, m.FailedRuns)
	for _, f := range figs {
		h.Write(f)
	}
	return h.sum()
}
