package main

import (
	"context"
	"time"

	"ridgewalker"
	"ridgewalker/internal/rng"
	"ridgewalker/internal/walk"
)

// The corpus workload: offline embedding-corpus generation. One
// closed-loop client submits bulk requests of corpusQueries walks, first
// DeepWalk, then weighted Node2Vec, on a graph whose CSR plus alias store
// is just over a 300 MiB last-level cache.
const (
	corpusScale       = 20
	corpusQueries     = 4096
	corpusDeepWalkLen = 80
	// corpusNode2VecLen is shorter than the paper's 80: the default
	// calibration sweep probes at the request's walk length, and at 80
	// one weighted Node2Vec sweep on this graph takes about a minute,
	// longer than a whole run may.
	corpusNode2VecLen = 5
)

func corpusConfigs(seed uint64) (dw, n2v walk.Config) {
	dw = walk.DefaultConfig(walk.DeepWalk)
	dw.WalkLength, dw.Seed, dw.Lane = corpusDeepWalkLen, seed, walk.LaneBulk
	n2v = walk.DefaultConfig(walk.Node2Vec)
	n2v.WalkLength, n2v.Seed, n2v.Lane = corpusNode2VecLen, seed, walk.LaneBulk
	return dw, n2v
}

func runCorpus(e *env) error {
	g, err := workloadGraph(e, corpusScale)
	if err != nil {
		return err
	}
	e.checker = newChecker(g)
	pool := startPool(g)
	r := rng.New(e.seed)
	var nextID uint32
	draw := func() []walk.Query {
		qs := pool.draw(r, corpusQueries, nextID)
		nextID += corpusQueries
		return qs
	}
	dw, n2v := corpusConfigs(e.seed)
	// Service defaults: backend auto, Workers = GOMAXPROCS, no in-flight
	// budget.
	svc, err := setUp(e, g, ridgewalker.ServiceConfig{}, []firstReply{{dw, draw()}, {n2v, draw()}})
	if err != nil {
		return err
	}
	defer svc.Close()

	var rp *replayer
	if e.tr != nil {
		if rp, err = newReplayer(svc, g, dw); err != nil {
			return err
		}
		defer rp.close()
	}
	// Node2Vec gets three quarters of the run: its requests are ten times
	// slower and vary more with the hubs their walks meet, so its median
	// needs the larger share of samples.
	dwRes := closedLoop(e, svc, g, dw, draw, e.budget/4, r, rp)
	n2vRes := closedLoop(e, svc, g, n2v, draw, e.budget*3/4, r, nil)

	dwSum := dwRes.lat.summary()
	e.put("ok_p50_ms", dwSum.P50, "ms")
	e.put("aux_ms", n2vRes.lat.summary().P50, "ms")
	var t tally
	t.add(dwRes.t)
	t.add(n2vRes.t)
	e.logf("# deepwalk phase: %s %v", fmtSummary(dwSum), dwRes.t)
	e.logf("# node2vec phase: %s %v", fmtSummary(n2vRes.lat.summary()), n2vRes.t)
	e.logf("deepwalk_steps_per_s %.6g steps/s", dwRes.stepsPerSec())
	e.logf("node2vec_steps_per_s %.6g steps/s", n2vRes.stepsPerSec())
	e.logf("fail_frac %.6g ratio (%v)", t.failFrac(), t)
	logPlans(e, svc)

	if e.tr != nil {
		mergeReplays(e)
		e.putLayer("trace.overhead_ms", dwRes.tracedP50-dwRes.untracedP50, "ms")
		return layerSuite(e, svc, g, []walk.Config{dw, n2v}, pool)
	}
	return nil
}

// closedResult is one closed-loop phase.
type closedResult struct {
	lat   latencies
	t     tally
	steps int64
	busy  time.Duration // time inside Submit; the checks between requests are excluded

	tracedP50, untracedP50 float64
}

func (c closedResult) stepsPerSec() float64 { return float64(c.steps) / c.busy.Seconds() }

// closedLoop submits one request at a time, the next as soon as the
// previous reply is checked, until budget of Submit time has passed.
// A closed loop's request is due when it is sent. Two requests per phase,
// the first and one seeded pick among the next eight, are also compared
// with the sequential reference engine. In a traced run every other
// request records a span, and rp, when set, replays every fourth traced
// request on the layers below.
func closedLoop(e *env, svc *ridgewalker.Service, g *ridgewalker.Graph, cfg walk.Config, draw func() []walk.Query,
	budget time.Duration, r *rng.Stream, rp *replayer) closedResult {
	var out closedResult
	var traced, untraced latencies
	goldenAt := 1 + r.Intn(8)
	for i := 0; out.busy < budget; i++ {
		qs := draw()
		on := e.tr != nil && i%2 == 1
		var sp int64
		if on {
			sp = e.tr.begin("service.Submit", 0, e.tr.newReq())
		}
		t := time.Now()
		res, err := svc.Submit(context.Background(), cfg, qs)
		d := time.Since(t)
		if on {
			e.tr.end(sp, steps(res))
		}
		out.busy += d
		out.t.note(err)
		e.tally.note(err)
		if err != nil {
			out.lat.fail()
			continue
		}
		out.lat.ok(d)
		out.steps += res.Steps
		if e.tr != nil {
			if on {
				traced.ok(d)
			} else {
				untraced.ok(d)
			}
		}
		if e.checker.reply(cfg, qs, res) != nil {
			continue
		}
		if i == 0 || i == goldenAt {
			if err := golden(g, cfg, qs, res); err != nil {
				e.checker.fail(err)
			}
		}
		if rp != nil && on && i%8 == 1 {
			rp.replay(e, sp, qs)
		}
	}
	out.tracedP50, out.untracedP50 = traced.at(50), untraced.at(50)
	return out
}
