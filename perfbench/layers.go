package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ridgewalker"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/plan"
	"ridgewalker/internal/rng"
	"ridgewalker/internal/sampling"
	"ridgewalker/internal/shard"
	"ridgewalker/internal/walk"
)

// layerBatch is the query count of the exec and walk throughput probes:
// one corpus request.
const layerBatch = corpusQueries

// layerSuite measures each layer from outside, on the workload's graph,
// through the layer's public functions, recording a span around every
// timed call. classes are the workload's request classes.
func layerSuite(e *env, svc *ridgewalker.Service, g *ridgewalker.Graph, classes []walk.Config, pool starts) error {
	r := rng.New(e.seed ^ 0x1a7e5)
	dw, n2v := corpusConfigs(e.seed)
	batch := pool.draw(r, layerBatch, 0)

	serviceLayer(e, svc)
	if err := rejectProbe(e, g, pool); err != nil {
		return err
	}
	if err := planLayer(e, svc, g, classes); err != nil {
		return err
	}
	if err := shardLayer(e, g); err != nil {
		return err
	}
	pl, err := servicePlan(svc, g, dw)
	if err != nil {
		return err
	}
	execSps, err := execLayer(e, g, dw, pl, batch)
	if err != nil {
		return err
	}
	pipeSps, err := walkLayer(e, g, dw, n2v, pl, batch, pool.draw(r, 256, 0))
	if err != nil {
		return err
	}
	e.putLayer("exec.over_walk", execSps/pipeSps, "ratio")
	alias, err := samplingLayer(e, g, pool, r)
	if err != nil {
		return err
	}
	if err := graphLayer(e, g, alias, r); err != nil {
		return err
	}
	e.putLayer("host.dep_gather_per_s", e.depGather, "gathers/s")
	e.putLayer("host.indep_gather_per_s", e.indepGather, "gathers/s")
	e.putLayer("walk.pct_of_gather_peak", 100*pipeSps/e.indepGather, "%")

	ls := layerSelf(e.tr.snapshot())
	for _, l := range []string{"service", "admit", "plan", "shard", "exec", "walk", "sampling", "graph", "host"} {
		e.putLayer(l+".self_total_ms", float64(ls[l].Self)/1e6, "ms")
		e.logf("# layer %-8s spans=%-6d self=%.1fms", l, ls[l].Spans, float64(ls[l].Self)/1e6)
	}
	return nil
}

// timed runs fn inside a root span named name and returns its duration.
func timed(e *env, name string, fn func() error) (time.Duration, error) {
	sp := e.tr.begin(name, 0, 0)
	t := time.Now()
	err := fn()
	d := time.Since(t)
	e.tr.end(sp, 0)
	return d, err
}

// repeat times fn n times and returns the median in seconds.
func repeat(e *env, name string, n int, fn func() error) (float64, error) {
	var ds []time.Duration
	for i := 0; i < n; i++ {
		d, err := timed(e, name, fn)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, d)
	}
	return durMedian(ds), nil
}

func serviceLayer(e *env, svc *ridgewalker.Service) {
	var reqs, batches int64
	for _, c := range svc.Metrics().PerBackend {
		reqs += c.Requests
		batches += c.Batches
	}
	e.putLayer("service.requests_per_batch", float64(reqs)/float64(max(batches, 1)), "ratio")
}

// admitLayer reports the share of Submits the admission gate shed and
// the in-flight budget it ended with.
func admitLayer(e *env, svc *ridgewalker.Service) {
	st := svc.AdmissionStatus()
	var admitted, shed int64
	for _, c := range st.PerLane {
		admitted += c.Admitted
		shed += c.Shed
	}
	e.putLayer("admit.shed_frac", float64(shed)/float64(max(admitted+shed, 1)), "ratio")
	e.putLayer("admit.budget_queries", float64(st.Budget), "queries")
}

// rejectProbe measures the auto in-flight budget, which the workloads'
// own Services leave off: a Service with it is warmed with sequential
// requests, then hit with bursts of concurrent ones until enough are
// shed. It reports the shed Submits' latency, the share of the bursts
// shed and the budget the gate derived. Its planner skips calibration
// (stats-only) because the probe measures admission, not planning.
func rejectProbe(e *env, g *ridgewalker.Graph, pool starts) error {
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{
		MaxInFlight: ridgewalker.AutoInFlight,
		Plan:        &ridgewalker.PlanOptions{},
	})
	if err != nil {
		return fmt.Errorf("reject probe: %w", err)
	}
	defer svc.Close()
	cfg := serveConfigs(e.seed)[0]
	r := rng.New(e.seed ^ 0x5ed)
	for i := 0; i < 16; i++ {
		if _, err := svc.Submit(context.Background(), cfg, pool.draw(r, serveQueries, 0)); err != nil {
			return fmt.Errorf("reject probe warm-up: %w", err)
		}
	}
	var mu sync.Mutex
	var rejects latencies
	for burst := 0; burst < 20 && len(rejects.ms) < 50; burst++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 64; i++ {
			qs := pool.draw(r, serveQueries, 0)
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				sp := e.tr.begin("admit.Submit.shed", 0, e.tr.newReq())
				t := time.Now()
				_, err := svc.Submit(context.Background(), cfg, qs)
				d := time.Since(t)
				e.tr.end(sp, 0)
				if errors.Is(err, ridgewalker.ErrOverloaded) {
					mu.Lock()
					rejects.ok(d)
					mu.Unlock()
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	e.putLayer("admit.reject_ms", finite(rejects.at(50)), "ms")
	admitLayer(e, svc)
	e.logf("# shed submits timed: %d", len(rejects.ms))
	return nil
}

func planLayer(e *env, svc *ridgewalker.Service, g *ridgewalker.Graph, classes []walk.Config) error {
	recals := 0
	ratio := 0.0
	dw, _ := corpusConfigs(e.seed)
	for _, cs := range svc.PlanStatus() {
		recals += cs.Recalibrations
		if cs.Class == plan.ClassOf(g, dw) && cs.PredictedStepsPerSec > 0 {
			ratio = cs.ObservedStepsPerSec / cs.PredictedStepsPerSec
		}
	}
	e.putLayer("plan.recalibrations", float64(recals), "count")
	e.putLayer("plan.observed_over_predicted", ratio, "ratio")
	var total float64
	for _, cfg := range classes {
		d, err := timed(e, "plan.ExplainPlan", func() error {
			_, err := ridgewalker.ExplainPlan(g, ridgewalker.BackendConfig{Walk: cfg, Plan: &ridgewalker.PlanOptions{Calibrate: true}})
			return err
		})
		if err != nil {
			return fmt.Errorf("explain plan %v: %w", cfg.Algorithm, err)
		}
		e.logf("# calibrate %v: %.3fs", cfg.Algorithm, d.Seconds())
		total += d.Seconds()
	}
	e.putLayer("plan.calibrate_s", total, "s")
	return nil
}

// shardLayer times shard.Partition at the shard counts the planner
// probes on this host (two when it probes none, as on one core).
func shardLayer(e *env, g *ridgewalker.Graph) error {
	k := 2
	for _, c := range plan.Candidates(plan.ComputeStats(g, nil), plan.Constraints{Workers: runtime.GOMAXPROCS(0)}) {
		k = max(k, c.Shards)
	}
	s, err := repeat(e, "shard.Partition", 3, func() error {
		_, err := shard.Partition(g, k)
		return err
	})
	if err != nil {
		return err
	}
	e.putLayer("shard.partition_s", s, "s")
	e.logf("# shard.Partition k=%d", k)
	return nil
}

// execLayer times OpenBackend for the planned DeepWalk backend and shape,
// and Session.Run on a corpus batch; it returns Run steps/s.
func execLayer(e *env, g *ridgewalker.Graph, dw walk.Config, pl plan.Plan, batch []walk.Query) (float64, error) {
	open, err := repeat(e, "exec.OpenBackend", 3, func() error {
		ses, err := openPlanned(g, dw, pl)
		if err != nil {
			return err
		}
		return ses.Close()
	})
	if err != nil {
		return 0, err
	}
	e.putLayer("exec.open_s", open, "s")
	ses, err := openPlanned(g, dw, pl)
	if err != nil {
		return 0, err
	}
	defer ses.Close()
	var n int64
	s, err := repeat(e, "exec.Session.Run", 3, func() error {
		res, err := ses.Run(context.Background(), ridgewalker.Batch{Queries: batch})
		if err == nil {
			n = res.Steps
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	sps := float64(n) / s
	e.putLayer("exec.steps_per_s", sps, "steps/s")
	e.logf("# exec plan for DeepWalk: %v", pl)
	return sps, nil
}

// walkLayer times the stepping loops on one goroutine: the cohort
// pipeline at the planned width and the depth-first walker over the
// same batch, and the pipeline on Node2Vec. It returns the pipeline's
// DeepWalk steps/s.
func walkLayer(e *env, g *ridgewalker.Graph, dw, n2v walk.Config, pl plan.Plan, batch, n2vBatch []walk.Query) (float64, error) {
	ref, err := walk.AcquireSampler(g, dw)
	if err != nil {
		return 0, err
	}
	defer ref.Release()
	pipe, err := walk.NewPipelineWithSampler(g, dw, ref.Sampler(), cohortOf(pl))
	if err != nil {
		return 0, err
	}
	var n int64
	s, err := repeat(e, "walk.Pipeline.Run", 3, func() error {
		var err error
		n, err = pipe.Run(batch, noEmit)
		return err
	})
	if err != nil {
		return 0, err
	}
	pipeSps := float64(n) / s
	e.putLayer("walk.pipeline_steps_per_s", pipeSps, "steps/s")

	w := walk.NewWalkerWithSampler(g, dw, ref.Sampler())
	s, err = repeat(e, "walk.Walker.Walk", 3, func() error {
		n = 0
		for _, q := range batch {
			_, k := w.Walk(q)
			n += k
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	e.putLayer("walk.depth_first_steps_per_s", float64(n)/s, "steps/s")

	nref, err := walk.AcquireSampler(g, n2v)
	if err != nil {
		return 0, err
	}
	defer nref.Release()
	npipe, err := walk.NewPipelineWithSampler(g, n2v, nref.Sampler(), cohortOf(pl))
	if err != nil {
		return 0, err
	}
	s, err = repeat(e, "walk.Pipeline.Run", 3, func() error {
		var err error
		n, err = npipe.Run(n2vBatch, noEmit)
		return err
	})
	if err != nil {
		return 0, err
	}
	e.putLayer("walk.node2vec_steps_per_s", float64(n)/s, "steps/s")
	return pipeSps, nil
}

// samplingLayer builds the flat alias store, sizes it and times draws at
// random vertices; it returns the store for the rebuild probe.
func samplingLayer(e *env, g *ridgewalker.Graph, pool starts, r *rng.Stream) (*sampling.AliasSampler, error) {
	var s sampling.Sampler
	build, err := repeat(e, "sampling.Spec.Build", 1, func() error {
		var err error
		s, err = sampling.Spec{Kind: sampling.KindAlias, Weighted: true}.Build(g)
		return err
	})
	if err != nil {
		return nil, err
	}
	alias, ok := s.(*sampling.AliasSampler)
	if !ok {
		return nil, fmt.Errorf("alias spec built %T", s)
	}
	e.putLayer("sampling.alias_build_s", build, "s")
	e.putLayer("sampling.alias_bytes", float64(sampling.Footprint(alias)), "bytes")

	vs := make([]graph.VertexID, 1<<16)
	for i := range vs {
		vs[i] = pool[r.Intn(len(pool))]
	}
	var draws int64
	var sink int
	d, _ := timed(e, "sampling.AliasSampler.DrawAt", func() error {
		t := time.Now()
		for time.Since(t) < 500*time.Millisecond {
			for _, v := range vs {
				sink += alias.DrawAt(v, r)
			}
			draws += int64(len(vs))
		}
		return nil
	})
	gatherSink += uint32(sink)
	e.putLayer("sampling.alias_draws_per_s", float64(draws)/d.Seconds(), "draws/s")
	return alias, nil
}

// graphLayer replays 20 write-stream batches on a standalone versioned
// copy of the graph: each batch's InsertEdges or DeleteEdges, the
// Snapshot after it, and the alias rows rebuilt for that snapshot; then
// a Compact.
func graphLayer(e *env, g *ridgewalker.Graph, alias *sampling.AliasSampler, r *rng.Stream) error {
	vg := graph.NewVersioned(g)
	ws := &writeStream{g: g, r: r}
	var writes, snaps, rebuilds latencies
	for i := 0; i < 20; i++ {
		edges, insert := ws.next()
		d, err := timed(e, "graph.Versioned.InsertEdges", func() error {
			if insert {
				return vg.InsertEdges(edges)
			}
			return vg.DeleteEdges(edges)
		})
		if err != nil {
			return fmt.Errorf("graph write: %w", err)
		}
		writes.ok(d)
		var snap *graph.Snapshot
		d, _ = timed(e, "graph.Versioned.Snapshot", func() error {
			snap = vg.Snapshot()
			return nil
		})
		snaps.ok(d)
		d, err = timed(e, "sampling.AliasSampler.WithRebuiltRows", func() error {
			_, err := alias.WithRebuiltRows(snap)
			return err
		})
		if err != nil {
			return fmt.Errorf("rebuild rows: %w", err)
		}
		rebuilds.ok(d)
	}
	e.putLayer("graph.insert_ms", writes.at(50), "ms")
	e.putLayer("graph.snapshot_ms", snaps.at(50), "ms")
	e.putLayer("sampling.rebuild_rows_ms", rebuilds.at(50), "ms")
	d, _ := timed(e, "graph.Versioned.Compact", func() error {
		vg.Compact()
		return nil
	})
	e.putLayer("graph.compact_ms", float64(d)/1e6, "ms")
	return nil
}
