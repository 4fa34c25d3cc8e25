package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ridgewalker"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
	"ridgewalker/internal/walk"
)

// setupReps is how many times a run builds its Service from scratch;
// setup_s is the median.
const setupReps = 3

// graphSeed fixes each workload's graph; --seed varies the queries, the
// walk seeds, the arrival schedule and the write stream on it.
const graphSeed = 1

// workloadGraph returns the weighted Graph500 RMAT graph of the given
// scale (edge factor 16) and prints its size against the last-level
// cache. The graph is generated once per checkout and kept in cacheDir.
func workloadGraph(e *env, scale int) (*ridgewalker.Graph, error) {
	t := time.Now()
	path := filepath.Join(e.cacheDir, fmt.Sprintf("rmat%d-graph500-w-%d.rwg", scale, graphSeed))
	g, err := ridgewalker.LoadGraph(path)
	how := "loaded"
	if err != nil {
		how = "generated"
		if g, err = ridgewalker.GenerateRMAT(ridgewalker.Graph500(scale, 16, graphSeed)); err != nil {
			return nil, fmt.Errorf("generate graph: %w", err)
		}
		g.AttachWeights()
		if err := saveGraph(path, g); err != nil {
			return nil, err
		}
	}
	e.logf("# graph graph500 rmat-%d weighted V=%d E=%d csr=%.1fMiB %s in %.1fs", scale, g.NumVertices, g.NumEdges(),
		float64(g.MemoryFootprintBytes())/(1<<20), how, time.Since(t).Seconds())
	// Generation garbage must not count against the serving heap.
	runtime.GC()
	return g, nil
}

// graphBytes is the size of a weighted CSR with v vertices and e edges
// (8-byte row pointers, 4-byte columns and weights) and of its flat alias
// store (a float64 probability and an int32 alias per edge, a locator
// word per vertex).
func graphBytes(v, e int64) (csr, alias int64) {
	return 8*(v+1) + 8*e, 12*e + 8*v
}

// saveGraph writes g to path through a temporary file, so a run that is
// killed mid-write leaves no partial graph behind.
func saveGraph(path string, g *ridgewalker.Graph) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := ridgewalker.SaveGraph(tmp, g); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cache graph: %w", err)
	}
	return os.Rename(tmp, path)
}

// starts is the pool of vertices a walk may start from (out-degree > 0),
// built once so drawing a request's queries is O(queries).
type starts []graph.VertexID

func startPool(g *ridgewalker.Graph) starts {
	var p starts
	for v := 0; v < g.NumVertices; v++ {
		if g.Degree(graph.VertexID(v)) > 0 {
			p = append(p, graph.VertexID(v))
		}
	}
	return p
}

// draw returns n queries with IDs from firstID on and seeded starts.
func (p starts) draw(r *rng.Stream, n int, firstID uint32) []walk.Query {
	qs := make([]walk.Query, n)
	for i := range qs {
		qs[i] = walk.Query{ID: firstID + uint32(i), Start: p[r.Intn(len(p))]}
	}
	return qs
}

// firstReply is one request class's set-up request.
type firstReply struct {
	cfg walk.Config
	qs  []walk.Query
}

// setUp measures set-up setupReps times: from NewService until every
// request class has had a first successful reply (calibration, sampler
// builds and session opens all fall inside). Every Service but the last
// is closed; the last is returned for the measured phases, after the
// heap it holds is recorded. Set-up replies are checked and counted like
// any other.
func setUp(e *env, g *ridgewalker.Graph, cfg ridgewalker.ServiceConfig, firsts []firstReply) (*ridgewalker.Service, error) {
	var times []time.Duration
	var svc *ridgewalker.Service
	for i := 0; i < setupReps; i++ {
		if svc != nil {
			svc.Close()
			svc = nil
			runtime.GC()
		}
		t := time.Now()
		sp := e.tr.begin("service.NewService", 0, 0)
		s, err := ridgewalker.NewService(g, cfg)
		e.tr.end(sp, 0)
		if err != nil {
			return nil, fmt.Errorf("NewService: %w", err)
		}
		svc = s
		for _, f := range firsts {
			sp := e.tr.begin("service.Submit", 0, e.tr.newReq())
			res, err := svc.Submit(context.Background(), f.cfg, f.qs)
			e.tr.end(sp, steps(res))
			e.tally.note(err)
			if err != nil {
				svc.Close()
				return nil, fmt.Errorf("set-up %v request: %w", f.cfg.Algorithm, err)
			}
			e.checker.reply(f.cfg, f.qs, res)
		}
		times = append(times, time.Since(t))
	}
	e.put("setup_s", durMedian(times), "s")
	e.put("live_heap_mb", liveHeapMiB(), "MiB")
	e.logf("# setup_s runs: %v", times)
	return svc, nil
}

// logPlans reports the plan the Service holds for each request class.
func logPlans(e *env, svc *ridgewalker.Service) {
	for _, cs := range svc.PlanStatus() {
		e.logf("# plan %v: %v observed=%.3g steps/s recalibrations=%d", cs.Class, cs.Plan, cs.ObservedStepsPerSec, cs.Recalibrations)
	}
}

func steps(res *walk.Result) int64 {
	if res == nil {
		return 0
	}
	return res.Steps
}
