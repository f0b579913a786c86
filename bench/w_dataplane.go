package main

import (
	"fmt"
	"math"
	"time"

	"pos/internal/casestudy"
)

// dataplaneSweep drives the emulated data plane alone — no control plane,
// no store — through the same engine three ways: one timeline with the
// timestamp path (single), partitioned timelines at the code's default
// partition (chain), and seeded VM jitter with overload drops (virtual). A
// gain for one that costs another shows in the step medians. The smallest
// frame size at overload is in every grid, where per-packet cost dominates.
type dataplaneSweep struct {
	*oracle
	single, chain, virtual *casestudy.Topology
}

const simSeconds = 1.0 // simulated seconds per measurement run

var (
	latencyRates = []float64{100_000, 1_000_000}
	chainRates   = []float64{150_000, 600_000, 1_800_000}
	frameSizes   = []int{64, 1500}
)

func (w *dataplaneSweep) steps() [3]string { return [3]string{"single", "chain", "virtual"} }
func (w *dataplaneSweep) warmup() int      { return 30 }
func (w *dataplaneSweep) clients() int     { return 1 }

func (w *dataplaneSweep) setup(seed uint64, _ string) (err error) {
	if w.oracle, err = newOracle("dataplane_sweep", seed, false); err != nil {
		return err
	}
	if w.single, err = casestudy.New(casestudy.BareMetal, casestudy.WithSeed(seed)); err != nil {
		return err
	}
	if w.chain, err = casestudy.NewChain(casestudy.BareMetal,
		casestudy.ChainConfig{Routers: 8, Clusters: 4}, casestudy.WithSeed(seed)); err != nil {
		return err
	}
	w.virtual, err = casestudy.New(casestudy.Virtual, casestudy.WithSeed(seed))
	return err
}

func (w *dataplaneSweep) teardown() {
	for _, t := range []*casestudy.Topology{w.single, w.chain, w.virtual} {
		if t != nil {
			t.Close()
		}
	}
}

func (w *dataplaneSweep) finish() map[string]float64 { return nil }

// sweepStats collects what an op simulated: hashed for the oracle, checked
// for shape, and counted for the per-packet layer metrics.
type sweepStats struct {
	points  []casestudy.RunPoint
	samples [][]float64
}

func (s *sweepStats) run(tr *tracer, t *casestudy.Topology, size int, rate float64) error {
	tr.begin("casestudy.DirectRun")
	p, err := t.DirectRun(size, rate, simSeconds)
	tr.end()
	s.points = append(s.points, p)
	return err
}

func txPackets(points []casestudy.RunPoint) float64 {
	n := 0.0
	for _, p := range points {
		n += p.TxMpps * 1e6 * simSeconds
	}
	return n
}

func (w *dataplaneSweep) burst(_ int, tr *tracer) burstResult {
	var st sweepStats
	var cut [2]int // st.points index where step 2 and step 3 begin
	op := startOp(tr, w.steps())
	fail := func(err error) burstResult { return burstResult{ops: []opResult{op.abort(err)}} }

	ext := casestudy.ExtendedSweep()
	for _, size := range ext.Sizes {
		for _, rate := range ext.RatesPPS {
			if err := st.run(tr, w.single, size, float64(rate)); err != nil {
				return fail(err)
			}
		}
	}
	for _, size := range frameSizes {
		for _, rate := range latencyRates {
			tr.begin("casestudy.LatencySamples")
			lat, err := w.single.LatencySamples(size, rate, simSeconds)
			tr.end()
			if err != nil {
				return fail(err)
			}
			st.samples = append(st.samples, lat)
		}
	}
	cut[0] = len(st.points)
	op.next()
	for _, size := range frameSizes {
		for _, rate := range chainRates {
			if err := st.run(tr, w.chain, size, rate); err != nil {
				return fail(err)
			}
		}
	}
	cut[1] = len(st.points)
	op.next()
	paper := casestudy.PaperSweep()
	for _, size := range paper.Sizes {
		for _, rate := range paper.RatesPPS {
			if err := st.run(tr, w.virtual, size, float64(rate)); err != nil {
				return fail(err)
			}
		}
	}
	res := op.stop()

	houseStart := time.Now()
	if err := st.verify(); err != nil {
		res = opResult{err: err}
	} else {
		res.digest = st.digest()
		if err := w.check(res.digest); err != nil {
			res = opResult{err: err}
		}
	}
	res.layer = map[string]float64{
		"single_pkts":  txPackets(st.points[:cut[0]]),
		"chain_pkts":   txPackets(st.points[cut[0]:cut[1]]),
		"virtual_pkts": txPackets(st.points[cut[1]:]),
	}
	return burstResult{ops: []opResult{res}, house: time.Since(houseStart)}
}

// verify holds for every op, including those past the pinned prefix: the
// grid is complete, rates are sane, loss is a ratio, latency is positive.
func (s *sweepStats) verify() error {
	want := 2*22 + len(frameSizes)*len(chainRates) + 60
	if len(s.points) != want {
		return fmt.Errorf("dataplane: %d run points, want %d", len(s.points), want)
	}
	for _, p := range s.points {
		if !(p.TxMpps > 0) || !(p.RxMpps > 0) || p.RxMpps > p.TxMpps*1.001 ||
			p.LossRatio < 0 || p.LossRatio > 1 || math.IsNaN(p.LossRatio) {
			return fmt.Errorf("dataplane: implausible run point %+v", p)
		}
	}
	if len(s.samples) != len(frameSizes)*len(latencyRates) {
		return fmt.Errorf("dataplane: %d latency sample sets", len(s.samples))
	}
	for _, set := range s.samples {
		if len(set) == 0 {
			return fmt.Errorf("dataplane: empty latency sample set")
		}
		for _, x := range set {
			if !(x > 0) {
				return fmt.Errorf("dataplane: non-positive latency sample %v", x)
			}
		}
	}
	return nil
}

func (s *sweepStats) digest() string {
	h := newHasher()
	h.printf("%v", s.points)
	for _, set := range s.samples {
		h.printf("|%d|", len(set))
		h.floats(set)
	}
	return h.sum()
}
