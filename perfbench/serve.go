package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ridgewalker"
	"ridgewalker/internal/rng"
	"ridgewalker/internal/walk"
)

// The serve workload: online read traffic from independent users, so an
// open loop. Requests of serveQueries walks follow a seeded Poisson
// schedule and mix three classes; the graph fits in cache, so per-request
// cost in the service layers sets latency and capacity.
const (
	serveScale   = 18
	serveQueries = 32
	serveWalkLen = 10
	// nominalRPS is a quarter of the 250/s first proposed. Past about
	// 100/s a drift re-calibration can feed itself: the stall builds a
	// backlog, the backlog coalesces into batches whose steps/s drift
	// again, and in some runs the phase never recovers.
	nominalRPS = 62.5
	// latencyLimitMs is the tail limit a capacity rung must meet.
	latencyLimitMs = 20
	// maxFailFrac is the share of failed requests a capacity rung may have.
	maxFailFrac = 0.01
	// maxLateMs is the generator's own p99 lateness beyond which a phase
	// is invalid: half the latency limit, past which the schedule's
	// bunching, not the service, would set whether a rung passes.
	maxLateMs = latencyLimitMs / 2
	// windowWidth is the length of the windows the gated serve figures
	// are taken over.
	windowWidth = time.Second
	// rungDeadline bounds each capacity-rung request, so an overloaded
	// rung's backlog is abandoned instead of delaying the run.
	rungDeadline = time.Second
)

// ladder holds the capacity rungs above the nominal rate, searched in
// order until one fails; fallbackRPS is tried when the nominal rate fails.
var (
	ladder      = []float64{125, 250, 500, 1000, 2000}
	fallbackRPS = 31.25
)

// serveConfigs is the request mix: URW and DeepWalk walks of
// serveWalkLen hops and PPR with teleport 0.2.
func serveConfigs(seed uint64) []walk.Config {
	urw := walk.DefaultConfig(walk.URW)
	urw.WalkLength = serveWalkLen
	ppr := walk.DefaultConfig(walk.PPR)
	dw := walk.DefaultConfig(walk.DeepWalk)
	dw.WalkLength = serveWalkLen
	cfgs := []walk.Config{urw, ppr, dw}
	for i := range cfgs {
		cfgs[i].Seed = seed
	}
	return cfgs
}

// request is one scheduled read.
type request struct {
	due   time.Duration // offset from the phase start
	class int
	qs    []walk.Query
}

// reader owns a serve-style workload's inputs and its open-loop phases.
type reader struct {
	e    *env
	svc  *ridgewalker.Service
	g    *ridgewalker.Graph
	cfgs []walk.Config
	pool starts
	r    *rng.Stream
	next uint32
	reps []*replayer // traced runs: per-class replay of sampled requests
}

func newReader(e *env, scale int) (*reader, error) {
	g, err := workloadGraph(e, scale)
	if err != nil {
		return nil, err
	}
	e.checker = newChecker(g)
	rd := &reader{e: e, g: g, cfgs: serveConfigs(e.seed), pool: startPool(g), r: rng.New(e.seed)}
	var firsts []firstReply
	for _, cfg := range rd.cfgs {
		firsts = append(firsts, firstReply{cfg, rd.draw()})
	}
	// The Service keeps NewService's default, unbounded in-flight budget.
	// The auto budget admits about ten of these requests, so on a 2-core
	// host a stall of a few hundred milliseconds sheds reads, in some runs
	// and not in others, and the failure count would follow the host
	// rather than the program; with no budget a stall shows as latency.
	// The traced run's rejectProbe measures the auto budget.
	rd.svc, err = setUp(e, g, ridgewalker.ServiceConfig{}, firsts)
	if err != nil {
		return nil, err
	}
	if e.tr != nil {
		for _, cfg := range rd.cfgs {
			rp, err := newReplayer(rd.svc, g, cfg)
			if err != nil {
				rd.close()
				return nil, err
			}
			rd.reps = append(rd.reps, rp)
		}
	}
	return rd, nil
}

func (rd *reader) close() {
	for _, rp := range rd.reps {
		rp.close()
	}
	rd.svc.Close()
}

func (rd *reader) draw() []walk.Query {
	qs := rd.pool.draw(rd.r, serveQueries, rd.next)
	rd.next += serveQueries
	return qs
}

// schedule draws a Poisson arrival schedule at rate for d.
func (rd *reader) schedule(rate float64, d time.Duration) []request {
	var out []request
	t := 0.0
	for {
		t += rd.r.Exp(rate)
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, request{due: at, class: rd.r.Intn(len(rd.cfgs)), qs: rd.draw()})
	}
}

// phase is one open-loop run at a fixed rate.
type phase struct {
	rate float64
	lat  latencies // from each request's due time
	// wins splits lat into windowWidth windows of due time.
	wins []latencies
	late latencies // generator lateness
	t    tally
	// outstanding is the number of requests sent but unanswered when the
	// schedule ended.
	outstanding int64
	// Traced runs alternate requests with and without a span.
	traced, untraced latencies
	// golds are the seeded golden candidates that were served within one
	// graph epoch, for comparison with the reference engine.
	golds []goldenRead
}

// window returns the latencies of the window holding due time at.
func (p *phase) window(at time.Duration) *latencies {
	i := int(at / windowWidth)
	for len(p.wins) <= i {
		p.wins = append(p.wins, latencies{})
	}
	return &p.wins[i]
}

// windowMedian is the median over the phase's windows of f. A figure
// taken per window and then medianed is set by the typical second of the
// phase: a cascade that takes a few seconds of it does not move it, one
// that takes most of the phase does.
func (p *phase) windowMedian(f func(*latencies) float64) float64 {
	var xs []float64
	for i := range p.wins {
		if len(p.wins[i].ms)+p.wins[i].failed > 0 {
			xs = append(xs, f(&p.wins[i]))
		}
	}
	return median(xs)
}

// windowSeries lists f over the phase's windows, in order, rounded to
// three significant digits for the report.
func (p *phase) windowSeries(f func(*latencies) float64) []string {
	out := make([]string, len(p.wins))
	for i := range p.wins {
		out[i] = fmt.Sprintf("%.3g", f(&p.wins[i]))
	}
	return out
}

// windowAt returns a function giving a window's percentile p over its
// successful requests; a window with none counts as over every limit.
func windowAt(p float64) func(*latencies) float64 {
	return func(l *latencies) float64 {
		if len(l.ms) == 0 {
			return math.Inf(1)
		}
		return l.at(p)
	}
}

func (p *phase) valid() bool { return p.late.at(99) <= maxLateMs }

// backlogGrew reports more requests outstanding at the end of the
// schedule than the rate lets finish within the latency limit, with one
// in service per worker.
func (p *phase) backlogGrew() bool {
	return float64(p.outstanding) > p.rate*latencyLimitMs/1000+float64(runtime.GOMAXPROCS(0))
}

// passes applies the capacity criteria: a valid phase whose tail meets
// the latency limit, with few failures and no growing backlog.
func (p *phase) passes() bool {
	tp, ok := tailPercentile(len(p.lat.ms) + p.lat.failed)
	return ok && p.valid() && p.lat.allAt(tp) <= latencyLimitMs && p.t.failFrac() <= maxFailFrac && !p.backlogGrew()
}

// logReads prints a read phase's latency by the benchmark's metric names:
// over every request, a failed one counting as over every limit, and
// over the successful ones.
func logReads(e *env, p *phase) {
	n := len(p.lat.ms) + p.lat.failed
	tp, _ := tailPercentile(n)
	sum := p.lat.summary()
	e.logf("p50_ms %.6g ms (all %d requests; successful only: %.6g ms)", p.lat.allAt(50), n, sum.P50)
	e.logf("p99_ms %.6g ms (quoted at p%g of all %d requests; successful only: p%g %.6g ms)", p.lat.allAt(tp), tp, n, sum.TailP, sum.Tail)
	e.logf("fail_frac %.6g ratio (%v)", p.t.failFrac(), p.t)
}

func (p *phase) String() string {
	ok := "valid"
	if !p.valid() {
		ok = "INVALID (generator late)"
	}
	return fmt.Sprintf("rate=%g/s %s late_p99=%.3fms late_max=%.3fms outstanding_at_end=%d %v %s",
		p.rate, fmtSummary(p.lat.summary()), p.late.at(99), p.late.at(100), p.outstanding, p.t, ok)
}

// run sends the schedule open loop: each request goes out at its due
// time on its own goroutine, whether or not earlier ones have returned,
// and its latency runs from the due time, so a stall also delays every
// request due during it. operating marks the workload's operating point:
// its outcomes count in the run's totals, and in a traced run its
// requests carry spans and a sample is replayed below the service.
// Capacity rungs are probes that overload the service on purpose, so
// none of that applies to them, and their requests carry a deadline of
// rungDeadline. Replays run after the phase: run
// concurrently they would compete with the traffic they measure.
func (rd *reader) run(rate float64, d time.Duration, operating bool) *phase {
	e := rd.e
	reqs := rd.schedule(rate, d)
	p := &phase{rate: rate}
	cand := map[int]bool{}
	for k := 0; operating && k < goldenCandidates && len(reqs) > 0; k++ {
		cand[rd.r.Intn(len(reqs))] = true
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var sent, done atomic.Int64
	var replays []replayJob
	start := time.Now()
	for i, rq := range reqs {
		due := start.Add(rq.due)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		p.late.ok(time.Since(due))
		sent.Add(1)
		wg.Add(1)
		go func(i int, rq request, due time.Time) {
			defer wg.Done()
			defer done.Add(1)
			cfg := rd.cfgs[rq.class]
			on := e.tr != nil && operating && i%2 == 1
			var sp int64
			if on {
				sp = e.tr.begin("service.Submit", 0, e.tr.newReq())
			}
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if !operating {
				ctx, cancel = context.WithTimeout(ctx, rungDeadline)
			}
			defer cancel()
			before := rd.svc.GraphEpoch()
			res, err := rd.svc.Submit(ctx, cfg, rq.qs)
			lat := time.Since(due)
			after := rd.svc.GraphEpoch()
			if on {
				e.tr.end(sp, steps(res))
			}
			checked := err == nil && e.checker.reply(cfg, rq.qs, res) == nil
			mu.Lock()
			defer mu.Unlock()
			if checked && cand[i] && before == after {
				p.golds = append(p.golds, goldenRead{index: i, epoch: before, cfg: cfg, qs: rq.qs, res: res})
			}
			p.t.note(err)
			if operating {
				e.tally.note(err)
			}
			w := p.window(rq.due)
			if err != nil {
				p.lat.fail()
				w.fail()
				return
			}
			p.lat.ok(lat)
			w.ok(lat)
			if e.tr != nil {
				if on {
					p.traced.ok(lat)
				} else {
					p.untraced.ok(lat)
				}
			}
			if on && i%8 == 1 {
				replays = append(replays, replayJob{class: rq.class, span: sp, qs: rq.qs})
			}
		}(i, rq, due)
	}
	p.outstanding = sent.Load() - done.Load()
	wg.Wait()
	for _, j := range replays {
		rd.reps[j.class].replay(e, j.span, j.qs)
	}
	return p
}

type replayJob struct {
	class int
	span  int64
	qs    []walk.Query
}

func runServe(e *env) error {
	rd, err := newReader(e, serveScale)
	if err != nil {
		return err
	}
	defer rd.close()
	// Half of the run at the nominal rate, then a tenth per capacity
	// rung, five at most. The gated figures are medians over the nominal
	// phase's one-second windows: a drift re-calibration cascade stalls
	// the Service for a second or two in some runs and not in others, so
	// whole-phase figures would split runs into two groups. The
	// whole-phase figures are printed too.
	nominal := rd.run(nominalRPS, e.budget/2, true)
	e.put("ok_p50_ms", overLimit(nominal.windowMedian(windowAt(50))), "ms")
	e.put("aux_ms", overLimit(nominal.windowMedian(windowAt(90))), "ms")
	e.logf("# nominal: %v", nominal)
	e.logf("# nominal p50 by window: %v", nominal.windowSeries(windowAt(50)))
	logReads(e, nominal)
	if err := checkGoldens(rd.g, nil, nominal.golds); err != nil {
		e.checker.fail(err)
	}
	e.logf("# golden reads checked: %d", min(len(nominal.golds), goldenSamples))

	capacity, rungs := searchCapacity(nominal, func(rate float64) *phase { return rd.run(rate, e.budget/10, false) })
	for _, ph := range rungs {
		e.logf("# rung: %v", ph)
	}
	logPlans(e, rd.svc)
	e.logf("capacity_rps %g req/s (tail <= %dms, fail_frac <= %g, no growing backlog)", capacity, latencyLimitMs, maxFailFrac)
	if e.tr != nil {
		reportReplays(e, nominal)
		return layerSuite(e, rd.svc, rd.g, rd.cfgs, rd.pool)
	}
	return nil
}

// overLimitMs stands in for a latency over every limit (a window in
// which no request succeeded), so the JSON carries a finite figure that
// is worse than any measured one.
const overLimitMs = 1e6

func overLimit(ms float64) float64 {
	if math.IsInf(ms, 1) {
		return overLimitMs
	}
	return ms
}

// searchCapacity returns the highest rate that passes the capacity
// criteria, and the rungs it measured beyond the nominal phase: the
// ladder in order until a rung fails (the first rung is always measured),
// and the fallback rate when the nominal rate itself fails.
func searchCapacity(nominal *phase, measure func(rate float64) *phase) (float64, []*phase) {
	capacity := 0.0
	if nominal.passes() {
		capacity = nominal.rate
	}
	var rungs []*phase
	for _, rate := range ladder {
		ph := measure(rate)
		rungs = append(rungs, ph)
		if capacity == 0 || !ph.passes() {
			break
		}
		capacity = rate
	}
	if capacity == 0 {
		ph := measure(fallbackRPS)
		rungs = append(rungs, ph)
		if ph.passes() {
			capacity = fallbackRPS
		}
	}
	return capacity, rungs
}

// reportReplays records the replay-derived service metrics and the
// tracing overhead of a traced phase.
func reportReplays(e *env, p *phase) {
	mergeReplays(e)
	e.putLayer("trace.overhead_ms", p.traced.at(50)-p.untraced.at(50), "ms")
}
