package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pos/internal/casestudy"
	"pos/internal/results"
	"pos/internal/timeline"
)

// appendixCampaign is ROADMAP's end-to-end figure: the Appendix-A campaign,
// 60 measurement runs through the real TCP mgmt/shell control plane into a
// fresh results store, then the enumeration every consumer performs. core,
// hosttools, mgmt/shell/wire and the results write path do most of the
// work; queue, api, sched and partition do none.
type appendixCampaign struct {
	*oracle
	seed uint64
	dir  string
	n    int
}

func (w *appendixCampaign) steps() [3]string { return [3]string{"build", "run", "wrap"} }
func (w *appendixCampaign) warmup() int      { return 20 }
func (w *appendixCampaign) clients() int     { return 1 }

func (w *appendixCampaign) setup(seed uint64, dir string) (err error) {
	w.seed, w.dir = seed, dir
	w.oracle, err = newOracle("appendix_campaign", seed, true)
	return err
}

func (w *appendixCampaign) finish() map[string]float64 { return nil }
func (w *appendixCampaign) teardown()                  { os.RemoveAll(w.dir) }

func (w *appendixCampaign) burst(_ int, tr *tracer) burstResult {
	root := filepath.Join(w.dir, fmt.Sprintf("op%06d", w.n))
	w.n++
	op := startOp(tr, w.steps())
	fail := func(err error) burstResult {
		res := op.abort(err)
		os.RemoveAll(root)
		return burstResult{ops: []opResult{res}}
	}

	tr.begin("casestudy.New")
	topo, err := casestudy.New(casestudy.BareMetal, casestudy.WithSeed(w.seed))
	tr.end()
	if err != nil {
		return fail(err)
	}
	tr.begin("results.NewStore")
	store, err := results.NewStore(root)
	tr.end()
	if err != nil {
		topo.Close()
		return fail(err)
	}
	op.next()

	sweep := casestudy.PaperSweep()
	sweep.RuntimeSec = 1
	tr.begin("core.Runner.Run")
	sum, err := topo.Runner().Run(context.Background(), topo.Experiment(sweep), store)
	tr.end()
	if err != nil {
		topo.Close()
		return fail(err)
	}
	op.next()

	tr.begin("timeline.Assemble")
	tl, err := timeline.Assemble(sum.ResultsDir)
	tr.end()
	var metas []results.RunMeta
	var paths []string
	var exp *results.Experiment
	if err == nil {
		tr.begin("results.enumerate")
		exp, metas, paths, err = enumerate(store, sum.ResultsDir)
		tr.end()
	}
	tr.begin("casestudy.Close")
	topo.Close()
	tr.end()
	if err != nil {
		return fail(err)
	}
	res := op.stop()

	houseStart := time.Now()
	if sum.TotalRuns != 60 || sum.FailedRuns != 0 || len(metas) != 60 || len(tl.Runs) != 60 {
		err = fmt.Errorf("appendix: %d runs, %d failed, %d metadata, %d timeline runs",
			sum.TotalRuns, sum.FailedRuns, len(metas), len(tl.Runs))
	} else if res.digest, err = campaignDigest(exp, metas, paths); err == nil {
		err = w.check(res.digest)
	}
	if err != nil {
		res = opResult{err: err}
	} else {
		res.layer = map[string]float64{"timeline.wall_ms": tl.WallMS}
		for _, p := range tl.Phases {
			res.layer["timeline.phase_ms."+p.Phase] = p.MS
		}
	}
	os.RemoveAll(root)
	return burstResult{ops: []opResult{res}, house: time.Since(houseStart)}
}

// enumerate is the post-campaign listing every consumer performs: runs,
// their metadata, and the artifact paths.
func enumerate(store *results.Store, dir string) (*results.Experiment, []results.RunMeta, []string, error) {
	// dir is <root>/<user>/<name>/<id>.
	id := filepath.Base(dir)
	name := filepath.Base(filepath.Dir(dir))
	user := filepath.Base(filepath.Dir(filepath.Dir(dir)))
	exp, err := store.OpenExperiment(user, name, id)
	if err != nil {
		return nil, nil, nil, err
	}
	runs, err := exp.Runs()
	if err != nil {
		return nil, nil, nil, err
	}
	metas := make([]results.RunMeta, 0, len(runs))
	for _, run := range runs {
		m, err := exp.ReadRunMeta(run)
		if err != nil {
			return nil, nil, nil, err
		}
		metas = append(metas, m)
	}
	paths, err := exp.ArtifactPaths()
	return exp, metas, paths, err
}

// campaignDigest hashes what a campaign simulated: every run's metadata
// with the wall-clock fields left out, and the bytes of every per-run
// artifact the hosts uploaded (MoonGen logs, router counters).
func campaignDigest(exp *results.Experiment, metas []results.RunMeta, paths []string) (string, error) {
	h := newHasher()
	for _, m := range metas {
		h.meta(m)
		arts, err := exp.RunArtifacts(m.Run)
		if err != nil {
			return "", err
		}
		for _, a := range arts {
			node, file := filepath.Split(a)
			data, err := exp.ReadRunArtifact(m.Run, filepath.Clean(node), file)
			if err != nil {
				return "", err
			}
			h.printf("\n%s %d\n", a, len(data))
			h.Write(data)
		}
	}
	h.printf("\npaths=%d", len(paths))
	return h.sum(), nil
}
