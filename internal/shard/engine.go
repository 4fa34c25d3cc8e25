package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ridgewalker/internal/fault"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
	"ridgewalker/internal/sampling"
	"ridgewalker/internal/walk"
)

// EngineConfig sizes a sharded execution engine.
type EngineConfig struct {
	// Workers is the total worker budget across all shards; each shard's
	// pool gets max(1, Workers/K) goroutines, so the actual total is at
	// least K. 0 means runtime.GOMAXPROCS(0).
	Workers int
	// MaxInflight caps the walkers concurrently in flight across all
	// shards. It sizes the engine's walker-record pool: each record owns
	// a path buffer and RNG stream, recycled through the mesh's free
	// rings for the engine's lifetime. 0 means 4096.
	MaxInflight int
	// Cohort is each worker's step-interleaved pipeline width
	// (walk.Cohort): a worker batches up to Cohort resident walkers and
	// runs the Gather/Sample/Move stages over all of them per pass, so row
	// fetches overlap sampling across walkers. 0 means walk.DefaultCohort.
	Cohort int
	// RingCapacity caps each SPSC migration ring (walker records per
	// producer→consumer worker pair). A full ring never blocks and never
	// drops: the holding worker advances the walker in place until the
	// consumer drains — lossless backpressure with identical trajectories
	// (a walk's path never depends on which worker advances it). 0 means
	// 512.
	RingCapacity int
	// Layout optionally serves cohort Gather reads through a degree-aware
	// graph.Layout (hub rows in a compact cache-resident arena). It must
	// be built over the engine's graph; content identity makes it
	// trajectory-neutral.
	Layout *graph.Layout
	// Tiered optionally serves the cohort Gather stage through a tiered
	// store (hot arena + compressed cold CSR). It must be built over the
	// engine's graph; content identity makes it trajectory-neutral.
	// Mutually exclusive with Layout (the tiered store subsumes the hub
	// arena).
	Tiered *graph.Tiered
	// Snapshot optionally serves an epoch snapshot of a versioned graph:
	// rows dirty for the snapshot's epoch are read from its merged
	// overlay (Cohort.SetSnapshot), and second-order probes route through
	// it. It must be a snapshot over the engine's graph.
	Snapshot *graph.Snapshot
	// Sampler, when non-nil, is a prebuilt sampler the engine borrows
	// instead of building its own — the execution layer passes its
	// registry-shared sampler here so per-shard execution reads the one
	// global flat store rather than duplicating O(E) sampler state. The
	// caller retains ownership (and any registry ref) and must keep it
	// alive for the engine's lifetime.
	Sampler sampling.Sampler
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Cohort == 0 {
		c.Cohort = walk.DefaultCohort
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 4096
	}
	if c.RingCapacity == 0 {
		c.RingCapacity = 512
	}
	return c
}

// RunStats reports one Run's migration traffic.
type RunStats struct {
	// Migrations counts cross-shard walker hand-offs (one walker crossing
	// one partition boundary and being delivered to the owning shard).
	Migrations int64
	// HandoffBatches counts doorbells rung to wake a parked worker for
	// migrated walkers (a busy worker polls its rings and needs none);
	// Migrations divided by HandoffBatches is the realized migration
	// batching factor.
	HandoffBatches int64
	// RingStalls counts hand-off attempts that found the destination ring
	// full; each stalled walker was advanced in place instead (lossless
	// backpressure), so stalls cost locality, never correctness.
	RingStalls int64
	// Epoch is the versioned-graph epoch the run served (EngineConfig.
	// Snapshot's epoch), 0 when the engine runs an unversioned graph.
	// OverlayRows is that snapshot's dirty-row count — the per-epoch
	// overlay footprint every walker of this run consulted.
	Epoch       uint64
	OverlayRows int
}

// EmitFunc receives one finished walk: the query's position in the input
// batch, the query itself, the visited path (including the start vertex),
// and the hop count. The path aliases a recycled walker buffer and is
// valid only during the call. Emits may arrive concurrently from
// different shard workers; callers needing serialized delivery must lock.
type EmitFunc func(index int, q walk.Query, path []graph.VertexID, steps int64) error

// Engine executes walk batches over a partitioned graph. Each shard owns
// a worker pool; every worker runs a walk.Cohort over the walkers
// currently standing on its shard's vertices. When a hop crosses a
// partition boundary the walker — its resumable walk.State, path buffer,
// and RNG stream — is copied as one flat record into the fixed-capacity
// SPSC migration ring joining the two workers. A hand-off is a single
// struct copy ordered by one atomic store, there is no per-walker boxing
// or per-batch slice allocation, and the whole fabric (rings, walker
// records, path buffers, cohort lanes) is pooled per engine, so
// steady-state migration performs zero heap allocations.
//
// Sampling always reads the global CSR, not the per-shard views:
// second-order samplers touch rows outside the current shard (Node2Vec's
// HasEdge check against the previous vertex, MetaPath's labels of
// cross-shard neighbors), so shard-local row storage cannot serve them.
// The engine's locality comes from grouping walkers by owning shard —
// each worker's accesses concentrate in its partition's slice of the
// global arrays (plus the shared hub arena when a Layout is configured);
// the Shard CSR views serve partition statistics and tooling.
//
// Results are byte-identical to the unsharded engines for the same seed:
// a walker's RNG stream is keyed by its query ID exactly as walk.Run's,
// and its state travels with it, so the trajectory never depends on shard
// count, worker interleaving, migration order, or backpressure (a walker
// advanced in place because a ring was full takes the same path it would
// have taken after migrating).
//
// An Engine holds only immutable workload state plus a mesh cache; Run
// calls are independent and safe to issue concurrently (each Run draws
// its own mesh).
type Engine struct {
	g       *graph.CSR
	part    *Partitioning
	wcfg    walk.Config
	sampler sampling.Sampler
	src     *rng.Source
	cfg     EngineConfig

	// meshes caches up to meshCacheCap idle migration fabrics. A plain
	// bounded stack rather than a sync.Pool: pools are GC-evictable (and
	// deliberately lossy under the race detector), which would charge a
	// full mesh rebuild — thousands of allocations — to whichever Run the
	// collector happened to precede. Steady-state reuse must be
	// deterministic for the 0-alloc migration guarantee to mean anything.
	meshMu sync.Mutex
	meshes []*mesh
}

// bellEvery is how many cohort passes a busy worker lets hand-offs to a
// parked consumer accumulate before ringing it; an idle worker rings
// before it parks.
const bellEvery = 8

// meshCacheCap bounds idle cached meshes (concurrent Runs beyond it
// build transient meshes that are dropped on completion).
const meshCacheCap = 4

// NewEngine binds a partitioned graph and a walk configuration,
// constructing the sampler once.
func NewEngine(g *graph.CSR, p *Partitioning, wcfg walk.Config, cfg EngineConfig) (*Engine, error) {
	if p == nil || len(p.Shards) == 0 {
		return nil, fmt.Errorf("shard: engine needs a non-empty partitioning")
	}
	if cfg.Cohort < 0 {
		return nil, fmt.Errorf("shard: cohort %d, want >= 0", cfg.Cohort)
	}
	if cfg.RingCapacity < 0 {
		return nil, fmt.Errorf("shard: ring capacity %d, want >= 0", cfg.RingCapacity)
	}
	if cfg.Layout != nil && cfg.Layout.Graph() != g {
		return nil, fmt.Errorf("shard: layout built over a different graph")
	}
	if cfg.Tiered != nil {
		if cfg.Tiered.Graph() != g {
			return nil, fmt.Errorf("shard: tiered store built over a different graph")
		}
		if cfg.Layout != nil {
			return nil, fmt.Errorf("shard: layout and tiered store are mutually exclusive")
		}
	}
	if cfg.Snapshot != nil && cfg.Snapshot.Graph() != g {
		return nil, fmt.Errorf("shard: snapshot over a different graph")
	}
	sampler := cfg.Sampler
	if sampler == nil {
		var err error
		sampler, err = walk.BuildSampler(g, wcfg)
		if err != nil {
			return nil, err
		}
		// A dirty snapshot needs the alias store's dirty rows rebuilt —
		// the base arenas' locators still describe the pre-mutation rows.
		// Callers that pass a prebuilt Sampler (the exec layer) have
		// already derived it against the snapshot.
		if snap := cfg.Snapshot; snap != nil && snap.NumDirty() > 0 {
			if base, ok := sampler.(*sampling.AliasSampler); ok {
				if sampler, err = base.WithRebuiltRows(snap); err != nil {
					return nil, err
				}
			}
		}
	} else if err := wcfg.Validate(g); err != nil {
		return nil, err
	}
	if _, ok := sampling.AsStaged(sampler); !ok {
		return nil, fmt.Errorf("shard: sampler %T is not stage-resumable; cohort stepping unavailable", sampler)
	}
	return &Engine{
		g:       g,
		part:    p,
		wcfg:    wcfg,
		sampler: sampler,
		src:     rng.NewSource(wcfg.Seed),
		cfg:     cfg.withDefaults(),
	}, nil
}

// getMesh draws an idle mesh from the cache or builds one.
func (e *Engine) getMesh() *mesh {
	e.meshMu.Lock()
	if n := len(e.meshes); n > 0 {
		m := e.meshes[n-1]
		e.meshes[n-1] = nil
		e.meshes = e.meshes[:n-1]
		e.meshMu.Unlock()
		return m
	}
	e.meshMu.Unlock()
	return newMesh(e)
}

// putMesh returns a mesh to the cache (dropped beyond the cap).
func (e *Engine) putMesh(m *mesh) {
	e.meshMu.Lock()
	if len(e.meshes) < meshCacheCap {
		e.meshes = append(e.meshes, m)
	}
	e.meshMu.Unlock()
}

// Partitioning returns the engine's graph partitioning.
func (e *Engine) Partitioning() *Partitioning { return e.part }

// WorkersPerShard returns the per-shard pool size.
func (e *Engine) WorkersPerShard() int {
	w := e.cfg.Workers / e.part.K
	if w < 1 {
		w = 1
	}
	return w
}

// run is the per-Run execution state. It lives in the mesh it drives
// and is reset by mesh.acquire, so starting a Run allocates nothing but
// its worker goroutines.
type run struct {
	eng *Engine
	m   *mesh
	fn  EmitFunc

	remaining atomic.Int64
	// over is set when every walk has been emitted or the run failed;
	// end then wakes every parked goroutine through its doorbell.
	over     atomic.Bool
	failOnce sync.Once
	err      error

	migrations atomic.Int64
	handoffs   atomic.Int64
	stalls     atomic.Int64
	wg         sync.WaitGroup
}

// fail records the run's first error and ends it.
func (r *run) fail(err error) {
	r.failOnce.Do(func() {
		r.err = err
		r.end()
	})
}

// end marks the run over and wakes the workers, the injector and Run's
// wait. Each goroutine checks over after every wake, and every doorbell
// is rung after the flag is set, so none is left parked.
func (r *run) end() {
	m := r.m
	r.over.Store(true)
	for c := range m.bells {
		m.bell(c)
	}
	m.bellInjector()
	select {
	case m.finished <- struct{}{}:
	default:
	}
}

// finishRec emits a completed walk and returns its record — path buffer
// and all — to the injector through worker wi's free ring.
func (r *run) finishRec(wi int, w *walkerRec) {
	if err := r.fn(int(w.idx), w.q, w.st.Path, int64(w.st.Step)); err != nil {
		r.fail(err)
	}
	r.m.free[wi].push(w) // capacity MaxInflight bounds records in flight; never fails
	r.m.bellInjector()
	if r.remaining.Add(-1) == 0 {
		r.end()
	}
}

// flushBells wakes the parked consumers this worker has pushed to since
// its last flush: one doorbell per consumer, counted as a hand-off batch.
// A consumer found running needs none: the pushes precede this check, so
// if it parks afterwards, its pre-park inbound check sees them.
func (r *run) flushBells(ws *workerState) {
	for c, d := range ws.dirty {
		if !d {
			continue
		}
		ws.dirty[c] = false
		if r.m.workers[c].parked.Load() {
			r.handoffs.Add(1)
			r.m.bell(c)
		}
	}
}

// ejectLane hands a cohort lane's walker to the shard owning its new
// position (called by the cohort's eject callback after the lane's State
// was synced). A full ring parks the lane on the stalled list; the
// worker retries after the pass and re-admits locally if still full.
func (r *run) ejectLane(wi int, ws *workerState, tag int32) {
	if fault.Armed() {
		fault.MustCheck(fault.ShardHandoff)
	}
	m := r.m
	c := m.route(&ws.rr, int(ws.dst[tag]))
	if m.rings[wi][c].push(&ws.recs[tag]) {
		r.migrations.Add(1)
		ws.dirty[c] = true
		ws.freeLanes = append(ws.freeLanes, tag)
		return
	}
	r.stalls.Add(1)
	ws.stalled = append(ws.stalled, tag)
}

// worker is one goroutine of a shard's pool: arrivals are popped
// straight into free lane records and admitted to the walk.Cohort, which
// advances all resident walkers one Gather/Sample/Move pass at a time —
// one walker's CSR row fetch overlaps the sampling and move work of the
// rest. Ejection is decided per hop by the depart callback (resident hub
// rows stay, rows owned by another shard leave); ejected walkers leave
// with their State synced, as one flat record copy into the destination
// ring. The inbound rings double as the admission backlog: the worker
// pops only when a lane is free, so excess arrivals wait in the ring,
// not in a growing slice.
func (r *run) worker(wi int) {
	defer r.wg.Done()
	// Panic firewall: a crash while advancing a walker fails the run
	// (waking every parked worker and the injector) and quarantines the
	// mesh, never the process.
	if err := fault.Contain("shard-worker", func() error {
		r.workerLoop(wi)
		return nil
	}); err != nil {
		r.fail(err)
	}
}

func (r *run) workerLoop(wi int) {
	m := r.m
	ws := m.workers[wi]
	cohort := ws.cohort
	for {
		worked := false
		for p := 0; p <= m.W && len(ws.freeLanes) > 0; p++ {
			ring := m.rings[p][wi]
			for len(ws.freeLanes) > 0 {
				lane := ws.freeLanes[len(ws.freeLanes)-1]
				if !ring.pop(&ws.recs[lane]) {
					break
				}
				ws.freeLanes = ws.freeLanes[:len(ws.freeLanes)-1]
				cohort.Admit(&ws.recs[lane].st, &ws.recs[lane].r, lane)
				worked = true
			}
		}
		if cohort.Len() > 0 {
			if r.over.Load() {
				return
			}
			cohort.Step(ws.depart, ws.eject, ws.retire) // retire never errors here
			worked = true
			// Retry ejections that found a full ring during the pass; if
			// still full, re-admit the walker locally — it advances here
			// with an identical trajectory and re-attempts migration at
			// its next boundary crossing.
			for _, tag := range ws.stalled {
				c := m.route(&ws.rr, int(ws.dst[tag]))
				if m.rings[wi][c].push(&ws.recs[tag]) {
					r.migrations.Add(1)
					ws.dirty[c] = true
					ws.freeLanes = append(ws.freeLanes, tag)
				} else {
					m.bell(c)
					cohort.Admit(&ws.recs[tag].st, &ws.recs[tag].r, tag)
				}
			}
			ws.stalled = ws.stalled[:0]
		}
		if worked {
			// A busy worker rings parked consumers every bellEvery passes,
			// so a trickle of hand-offs wakes them in batches rather than
			// once per walker.
			ws.passes++
			if ws.passes%bellEvery == 0 {
				r.flushBells(ws)
			}
			continue
		}
		r.flushBells(ws)
		// Park. The flag is published before the last inbound check, so a
		// producer either sees it and rings or its push is seen here: no
		// hand-off can be left waiting on a parked worker.
		ws.parked.Store(true)
		if m.inbound(wi) {
			ws.parked.Store(false)
			continue
		}
		<-m.bells[wi]
		ws.parked.Store(false)
		if r.over.Load() {
			return
		}
	}
}

// flushInjectorBells wakes every consumer the injector has pushed to
// since the last flush. Injection hand-offs are not migrations, so they
// are not counted in HandoffBatches.
func (r *run) flushInjectorBells() {
	m := r.m
	for c, d := range m.injDirty {
		if d {
			m.injDirty[c] = false
			m.bell(c)
		}
	}
}

// inject feeds the query batch into the mesh, drawing walker records
// first from the pool prefix and then from the free rings as walks
// finish. It parks on the injector doorbell when no record is free and
// yields when a destination ring is full (the consumer always drains).
func (r *run) inject(ctx context.Context, queries []walk.Query) {
	// The injector runs on Run's caller goroutine; containment here keeps
	// an injection-path crash inside the run like any worker crash.
	if err := fault.Contain("shard-inject", func() error {
		r.injectLoop(ctx, queries)
		return nil
	}); err != nil {
		r.fail(err)
	}
}

func (r *run) injectLoop(ctx context.Context, queries []walk.Query) {
	m, e := r.m, r.eng
	freeTop := len(m.pool)
	if freeTop > len(queries) {
		freeTop = len(queries)
	}
	scan := 0 // round-robin start for the free-ring sweep
	for next := 0; next < len(queries); {
		var w *walkerRec
		if freeTop > 0 {
			freeTop--
			w = &m.pool[freeTop]
		} else {
			for i := 0; i < m.W; i++ {
				c := (scan + i) % m.W
				if m.free[c].pop(&m.injRec) {
					w = &m.injRec
					scan = c + 1
					break
				}
			}
			if w == nil {
				r.flushInjectorBells()
				select {
				case <-m.injBell:
					if r.over.Load() {
						return
					}
					continue
				case <-ctx.Done():
					r.fail(ctx.Err())
					return
				}
			}
		}
		q := queries[next]
		w.q, w.idx = q, int32(next)
		e.src.StreamInto(uint64(q.ID), &w.r)
		w.st.Start(q)
		c := m.route(&m.injRR, e.part.Owner(q.Start))
		for !m.rings[m.W][c].push(w) {
			m.bell(c)
			if r.over.Load() {
				return
			}
			runtime.Gosched()
		}
		m.injDirty[c] = true
		next++
		if next&63 == 0 {
			r.flushInjectorBells()
		}
	}
	r.flushInjectorBells()
}

// Run executes the query batch, delivering each finished walk through fn
// (possibly concurrently — see EmitFunc). It returns the run's migration
// statistics and the first error (a failed emit or context cancellation).
func (e *Engine) Run(ctx context.Context, queries []walk.Query, fn EmitFunc) (RunStats, error) {
	if len(queries) == 0 {
		return RunStats{}, nil
	}
	if err := ctx.Err(); err != nil {
		return RunStats{}, err
	}
	m := e.getMesh()
	r := m.acquire(fn, len(queries))
	for wi := 0; wi < m.W; wi++ {
		r.wg.Add(1)
		go r.worker(wi)
	}
	r.inject(ctx, queries)
	select {
	case <-m.finished:
	case <-ctx.Done():
		r.fail(ctx.Err())
	}
	r.wg.Wait()
	stats := RunStats{
		Migrations:     r.migrations.Load(),
		HandoffBatches: r.handoffs.Load(),
		RingStalls:     r.stalls.Load(),
	}
	if snap := e.cfg.Snapshot; snap != nil {
		stats.Epoch = snap.Epoch()
		stats.OverlayRows = snap.NumDirty()
	}
	err := r.err
	m.run = nil
	if errors.Is(err, fault.ErrEngineFault) {
		// A contained panic can leave the mesh's cohort lanes and ring
		// cursors mid-mutation; a concurrent Run drawing it from the cache
		// would inherit the corruption. Drop it — the next Run builds
		// fresh.
	} else {
		e.putMesh(m)
	}
	return stats, err
}
