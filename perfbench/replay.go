package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ridgewalker"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/plan"
	"ridgewalker/internal/sampling"
	"ridgewalker/internal/walk"
)

// replayer re-runs sampled requests on the layers below the Service: on
// a warm exec session of the plan the Service chose for the request's
// class, then on one walk.Pipeline at the planned cohort width over the
// registry sampler. The replays are recorded as replay children of the
// request's Submit span, so span self time splits a request between
// service, exec and walk.
type replayer struct {
	cfg  walk.Config
	ses  ridgewalker.Session
	ref  *sampling.SamplerRef
	pipe *walk.Pipeline
}

// servicePlan returns the plan the Service resolved for cfg's class.
func servicePlan(svc *ridgewalker.Service, g *ridgewalker.Graph, cfg walk.Config) (plan.Plan, error) {
	class := plan.ClassOf(g, cfg)
	for _, cs := range svc.PlanStatus() {
		if cs.Class == class {
			return cs.Plan, nil
		}
	}
	return plan.Plan{}, fmt.Errorf("no plan for class %v", class)
}

// cohortOf is the cohort width a plan runs at (the pipelined backend's
// default when the plan leaves it open).
func cohortOf(pl plan.Plan) int {
	if pl.Cohort > 0 {
		return pl.Cohort
	}
	return 64
}

// openPlanned opens the exec session the plan describes.
func openPlanned(g *ridgewalker.Graph, cfg walk.Config, pl plan.Plan) (ridgewalker.Session, error) {
	return ridgewalker.OpenBackend(pl.Backend, g, ridgewalker.BackendConfig{
		Walk:              cfg,
		Workers:           runtime.GOMAXPROCS(0),
		Shards:            pl.Shards,
		Cohort:            pl.Cohort,
		HubCacheBytes:     pl.HubCacheBytes,
		MemoryBudgetBytes: pl.MemoryBudgetBytes,
	})
}

func newReplayer(svc *ridgewalker.Service, g *ridgewalker.Graph, cfg walk.Config) (*replayer, error) {
	pl, err := servicePlan(svc, g, cfg)
	if err != nil {
		return nil, err
	}
	rp := &replayer{cfg: cfg}
	if rp.ses, err = openPlanned(g, cfg, pl); err != nil {
		return nil, fmt.Errorf("replay session: %w", err)
	}
	if rp.ref, err = walk.AcquireSampler(g, cfg); err != nil {
		rp.close()
		return nil, fmt.Errorf("replay sampler: %w", err)
	}
	if rp.pipe, err = walk.NewPipelineWithSampler(g, cfg, rp.ref.Sampler(), cohortOf(pl)); err != nil {
		rp.close()
		return nil, fmt.Errorf("replay pipeline: %w", err)
	}
	return rp, nil
}

func (rp *replayer) close() {
	if rp.ses != nil {
		rp.ses.Close()
	}
	if rp.ref != nil {
		rp.ref.Release()
	}
}

func noEmit(int, walk.Query, []graph.VertexID, int64) error { return nil }

// replay re-runs qs below the Submit span parent.
func (rp *replayer) replay(e *env, parent int64, qs []walk.Query) {
	req := e.tr.reqOf(parent)
	t := time.Now()
	res, err := rp.ses.Run(context.Background(), ridgewalker.Batch{Queries: qs})
	end := time.Now()
	if err != nil {
		e.checker.fail(fmt.Errorf("replay %v: %w", rp.cfg.Algorithm, err))
		return
	}
	run := e.tr.add(span{Parent: parent, Req: req, Name: "exec.Session.Run", Start: e.tr.at(t), End: e.tr.at(end), Replay: true, Steps: res.Steps})
	t = time.Now()
	n, err := rp.pipe.Run(qs, noEmit)
	end = time.Now()
	if err != nil {
		e.checker.fail(fmt.Errorf("replay pipeline %v: %w", rp.cfg.Algorithm, err))
		return
	}
	e.tr.add(span{Parent: run, Req: req, Name: "walk.Pipeline.Run", Start: e.tr.at(t), End: e.tr.at(end), Replay: true, Steps: n})
}

// mergeReplays derives the replay metrics from the recorded spans:
// service.self_ms is the median over replayed requests of Submit time
// minus Session.Run time, and service.over_exec is Service steps/s over
// Session.Run steps/s on the same queries.
func mergeReplays(e *env) {
	spans := e.tr.snapshot()
	self := selfTimes(spans)
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var selfMs []float64
	var submit, run time.Duration
	for _, s := range spans {
		if s.Name != "exec.Session.Run" || !s.Replay {
			continue
		}
		p := byID[s.Parent]
		selfMs = append(selfMs, float64(self[p.ID])/1e6)
		submit += p.dur()
		run += s.dur()
	}
	e.putLayer("service.self_ms", finite(median(selfMs)), "ms")
	over := 0.0
	if submit > 0 {
		over = run.Seconds() / submit.Seconds()
	}
	e.putLayer("service.over_exec", over, "ratio")
	e.logf("# replayed requests: %d", len(selfMs))
}
