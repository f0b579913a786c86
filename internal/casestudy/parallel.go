package casestudy

import (
	"errors"
	"fmt"
	"sync"
)

// SweepPoints flattens a sweep into its (size, rate) measurement points in
// campaign order: sizes outer, rates inner — the same order the appendix
// workflow's loop variables enumerate.
func SweepPoints(cfg SweepConfig) [][2]float64 {
	pts := make([][2]float64, 0, len(cfg.Sizes)*len(cfg.RatesPPS))
	for _, s := range cfg.Sizes {
		for _, r := range cfg.RatesPPS {
			pts = append(pts, [2]float64{float64(s), float64(r)})
		}
	}
	return pts
}

// ShardedSweep runs every point of the sweep, dealt round-robin across the
// replica topologies (built with NewReplicas) and executed in parallel, one
// goroutine per replica. Results come back in campaign order regardless of
// the dealing.
//
// Each replica's subsequence is exactly what sequential DirectRun calls on
// that replica produce — it is those calls, back-to-back on the replica's
// own engine — so determinism is per-replica, independent of GOMAXPROCS and
// scheduling; independent timelines need no synchronizer.
func ShardedSweep(topos []*Topology, cfg SweepConfig) ([]RunPoint, error) {
	if len(topos) == 0 {
		return nil, fmt.Errorf("casestudy: sharded sweep needs at least one topology")
	}
	runtime := cfg.RuntimeSec
	if runtime <= 0 {
		runtime = 2
	}
	pts := SweepPoints(cfg)
	out := make([]RunPoint, len(pts))
	errs := make([]error, len(topos))
	var wg sync.WaitGroup
	for i, t := range topos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := i; p < len(pts); p += len(topos) {
				pt, err := t.DirectRun(int(pts[p][0]), pts[p][1], runtime)
				if err != nil {
					errs[i] = err
					return
				}
				out[p] = pt
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}
