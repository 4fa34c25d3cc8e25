package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/walk"
)

// ringGraph builds the directed cycle 0→1→…→n-1→0: every walk is forced
// to sweep across every shard boundary, making migration traffic exact
// and predictable.
func ringGraph(t testing.TB, n int) *graph.CSR {
	t.Helper()
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 1) % n)}
	}
	g, err := graph.Build(n, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runEngine collects an engine run into a walk.Result, mirroring how the
// exec session adapts the concurrent emit callback.
func runEngine(t testing.TB, e *Engine, queries []walk.Query) (*walk.Result, RunStats) {
	t.Helper()
	res := &walk.Result{Paths: make([][]graph.VertexID, len(queries))}
	var mu sync.Mutex
	stats, err := e.Run(context.Background(), queries, func(i int, _ walk.Query, path []graph.VertexID, steps int64) error {
		cp := make([]graph.VertexID, len(path))
		copy(cp, path)
		mu.Lock()
		res.Paths[i] = cp
		res.Steps += steps
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, stats
}

// TestEngineMatchesGoldenEngine pins the core contract: sharded execution
// is byte-identical to the sequential golden engine at any shard count,
// worker count, and hand-off batch size.
func TestEngineMatchesGoldenEngine(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.Graph500(10, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	g.AttachWeights()
	cfg := walk.DefaultConfig(walk.DeepWalk)
	cfg.WalkLength = 25
	cfg.Seed = 13
	qs, err := walk.RandomQueries(g, cfg, 400, 19)
	if err != nil {
		t.Fatal(err)
	}
	want, err := walk.Run(g, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 7} {
		for _, ecfg := range []EngineConfig{
			{},
			{Workers: 1, MaxInflight: 2},
			{Workers: 16, MaxInflight: 64},
		} {
			p, err := Partition(g, k)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(g, p, cfg, ecfg)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := runEngine(t, e, qs)
			if got.Steps != want.Steps {
				t.Fatalf("k=%d cfg=%+v: steps %d, want %d", k, ecfg, got.Steps, want.Steps)
			}
			if !reflect.DeepEqual(got.Paths, want.Paths) {
				t.Fatalf("k=%d cfg=%+v: paths differ from golden engine", k, ecfg)
			}
		}
	}
}

// TestEngineMigrationTraffic uses the directed ring, where migration
// counts are exact: a walk of L hops starting anywhere crosses a shard
// boundary every time it steps onto a vertex owned by another shard.
func TestEngineMigrationTraffic(t *testing.T) {
	const n, walkLen = 64, 32
	g := ringGraph(t, n)
	cfg := walk.DefaultConfig(walk.URW)
	cfg.WalkLength = walkLen
	cfg.Seed = 5
	qs := make([]walk.Query, n)
	for i := range qs {
		qs[i] = walk.Query{ID: uint32(i), Start: graph.VertexID(i)}
	}
	want, err := walk.Run(g, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 8} {
		p, err := Partition(g, k)
		if err != nil {
			t.Fatal(err)
		}
		// Expected migrations: every hop onto a vertex with a different
		// owner than the previous one — except a walk's terminal hop
		// (WalkLength reached), after which the walker finishes in place
		// instead of being handed off.
		var wantMig int64
		for _, path := range want.Paths {
			for j := 1; j < len(path); j++ {
				if j == len(path)-1 && j == walkLen {
					continue
				}
				if p.Owner(path[j]) != p.Owner(path[j-1]) {
					wantMig++
				}
			}
		}
		e, err := NewEngine(g, p, cfg, EngineConfig{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		got, stats := runEngine(t, e, qs)
		if !reflect.DeepEqual(got.Paths, want.Paths) {
			t.Fatalf("k=%d: ring paths differ", k)
		}
		if stats.Migrations != wantMig {
			t.Fatalf("k=%d: %d migrations, want %d", k, stats.Migrations, wantMig)
		}
		if stats.HandoffBatches == 0 || stats.HandoffBatches > stats.Migrations+int64(k) {
			t.Fatalf("k=%d: implausible hand-off batches %d for %d migrations",
				k, stats.HandoffBatches, stats.Migrations)
		}
	}
}

// TestEngineBatchedHandoff checks hand-offs actually batch: with a large
// walker population and MigrateBatch 64, mailbox messages must be far
// fewer than migrations.
func TestEngineBatchedHandoff(t *testing.T) {
	g := ringGraph(t, 256)
	cfg := walk.DefaultConfig(walk.URW)
	cfg.WalkLength = 64
	cfg.Seed = 5
	qs := make([]walk.Query, 2048)
	for i := range qs {
		qs[i] = walk.Query{ID: uint32(i), Start: graph.VertexID(i % 256)}
	}
	p, err := Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, p, cfg, EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, stats := runEngine(t, e, qs)
	if stats.Migrations == 0 {
		t.Fatal("no migrations on a ring spanning 2 shards")
	}
	factor := float64(stats.Migrations) / float64(stats.HandoffBatches)
	if factor < 4 {
		t.Fatalf("hand-off batching factor %.1f (migrations %d, batches %d): per-step sends",
			factor, stats.Migrations, stats.HandoffBatches)
	}
}

func TestEngineEmitErrorStopsRun(t *testing.T) {
	g := ringGraph(t, 64)
	cfg := walk.DefaultConfig(walk.URW)
	cfg.WalkLength = 20
	qs := make([]walk.Query, 500)
	for i := range qs {
		qs[i] = walk.Query{ID: uint32(i), Start: graph.VertexID(i % 64)}
	}
	p, err := Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, p, cfg, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	n := 0
	var mu sync.Mutex
	_, err = e.Run(context.Background(), qs, func(int, walk.Query, []graph.VertexID, int64) error {
		mu.Lock()
		defer mu.Unlock()
		n++
		if n == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestEngineContextCancellation(t *testing.T) {
	g := ringGraph(t, 64)
	cfg := walk.DefaultConfig(walk.URW)
	cfg.WalkLength = 20
	qs := make([]walk.Query, 200)
	for i := range qs {
		qs[i] = walk.Query{ID: uint32(i), Start: graph.VertexID(i % 64)}
	}
	p, err := Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, p, cfg, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx, qs, func(int, walk.Query, []graph.VertexID, int64) error {
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEngineEmptyBatchAndDuplicateIDs(t *testing.T) {
	g := ringGraph(t, 16)
	cfg := walk.DefaultConfig(walk.URW)
	cfg.WalkLength = 10
	p, err := Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, p, cfg, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), nil, func(int, walk.Query, []graph.VertexID, int64) error {
		return fmt.Errorf("emit on empty batch")
	}); err != nil {
		t.Fatal(err)
	}
	// Duplicate query IDs (merged service batches): each slot must still be
	// filled with that ID's deterministic walk.
	qs := []walk.Query{{ID: 7, Start: 0}, {ID: 7, Start: 0}, {ID: 7, Start: 8}}
	res, _ := runEngine(t, e, qs)
	if len(res.Paths[0]) == 0 || !reflect.DeepEqual(res.Paths[0], res.Paths[1]) {
		t.Fatal("duplicate-ID walks from the same start must be identical")
	}
}

// TestEngineTinyInflightLiveness forces the degenerate pool (one walker in
// flight) through a migration-heavy workload: any staging/recycling
// ordering bug deadlocks here.
func TestEngineTinyInflightLiveness(t *testing.T) {
	g := ringGraph(t, 32)
	cfg := walk.DefaultConfig(walk.URW)
	cfg.WalkLength = 40
	cfg.Seed = 2
	qs := make([]walk.Query, 128)
	for i := range qs {
		qs[i] = walk.Query{ID: uint32(i), Start: graph.VertexID(i % 32)}
	}
	want, err := walk.Run(g, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, p, cfg, EngineConfig{Workers: 8, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runEngine(t, e, qs)
	if !reflect.DeepEqual(got.Paths, want.Paths) {
		t.Fatal("tiny-inflight run differs from golden engine")
	}
}

// TestEngineCohortStepping pins the cohort-stepping worker: an engine
// with Cohort > 0 runs walkers through the batched Gather/Sample/Move
// pipeline inside each shard worker and must stay byte-identical to the
// golden engine across shard counts, cohort sizes, and tight inflight
// bounds, with migration traffic still flowing (walkers eject mid-cohort).
func TestEngineCohortStepping(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.Graph500(10, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	g.AttachWeights()
	for _, alg := range []walk.Algorithm{walk.URW, walk.DeepWalk, walk.Node2Vec} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := walk.DefaultConfig(alg)
			cfg.WalkLength = 25
			cfg.Seed = 13
			qs, err := walk.RandomQueries(g, cfg, 400, 19)
			if err != nil {
				t.Fatal(err)
			}
			want, err := walk.Run(g, qs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 3, 7} {
				for _, ecfg := range []EngineConfig{
					{Cohort: 1},
					{Cohort: 8, Workers: 1, MaxInflight: 2},
					{Cohort: 64, Workers: 16, MaxInflight: 64},
				} {
					p, err := Partition(g, k)
					if err != nil {
						t.Fatal(err)
					}
					e, err := NewEngine(g, p, cfg, ecfg)
					if err != nil {
						t.Fatal(err)
					}
					got, stats := runEngine(t, e, qs)
					if got.Steps != want.Steps {
						t.Fatalf("k=%d cfg=%+v: steps %d, want %d", k, ecfg, got.Steps, want.Steps)
					}
					if !reflect.DeepEqual(got.Paths, want.Paths) {
						t.Fatalf("k=%d cfg=%+v: paths differ from golden engine", k, ecfg)
					}
					if k > 1 && stats.Migrations == 0 {
						t.Fatalf("k=%d cfg=%+v: no migrations on a multi-shard run", k, ecfg)
					}
				}
			}
		})
	}
}

// TestEngineCohortValidation pins EngineConfig.Cohort validation.
func TestEngineCohortValidation(t *testing.T) {
	g := ringGraph(t, 64)
	cfg := walk.DefaultConfig(walk.URW)
	cfg.WalkLength = 5
	p, err := Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(g, p, cfg, EngineConfig{Cohort: -1}); err == nil {
		t.Fatal("negative cohort accepted")
	}
}

// TestEngineRingBackpressure squeezes heavy cross-shard traffic through
// capacity-1 migration rings: backpressure must never drop or duplicate
// a walker, never deadlock, and never change a trajectory (a stalled
// walker is advanced in place — same path either way). The stall counter
// must show the backpressure path actually ran.
func TestEngineRingBackpressure(t *testing.T) {
	g := ringGraph(t, 256)
	cfg := walk.DefaultConfig(walk.URW)
	cfg.WalkLength = 48
	cfg.Seed = 11
	qs := make([]walk.Query, 2048)
	for i := range qs {
		qs[i] = walk.Query{ID: uint32(i), Start: graph.VertexID(i % 256)}
	}
	want, err := walk.Run(g, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ecfg := range []EngineConfig{
		{Workers: 2, RingCapacity: 1},             // depth-first
		{Workers: 2, RingCapacity: 1, Cohort: 64}, // cohort-stepping
	} {
		p, err := Partition(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(g, p, cfg, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		got, stats := runEngine(t, e, qs)
		if !reflect.DeepEqual(got.Paths, want.Paths) {
			t.Fatalf("cfg=%+v: backpressured run differs from golden engine", ecfg)
		}
		if stats.RingStalls == 0 {
			t.Fatalf("cfg=%+v: no ring stalls through capacity-1 rings (backpressure path untested)", ecfg)
		}
		if stats.Migrations == 0 {
			t.Fatalf("cfg=%+v: no migrations delivered at all", ecfg)
		}
	}
}

// TestEngineSingleShardDegenerate pins the K=1 path: no partition
// boundary exists, so the run must complete with zero migration traffic
// in both worker modes, byte-identical to the golden engine.
func TestEngineSingleShardDegenerate(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.Graph500(9, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := walk.DefaultConfig(walk.URW)
	cfg.WalkLength = 30
	cfg.Seed = 7
	qs, err := walk.RandomQueries(g, cfg, 300, 23)
	if err != nil {
		t.Fatal(err)
	}
	want, err := walk.Run(g, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ecfg := range []EngineConfig{{Workers: 2}, {Workers: 2, Cohort: 16}} {
		p, err := Partition(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(g, p, cfg, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		got, stats := runEngine(t, e, qs)
		if !reflect.DeepEqual(got.Paths, want.Paths) {
			t.Fatalf("cfg=%+v: single-shard run differs from golden engine", ecfg)
		}
		if stats.Migrations != 0 || stats.HandoffBatches != 0 {
			t.Fatalf("cfg=%+v: migration traffic %+v on a single shard", ecfg, stats)
		}
	}
}

// TestEngineLayoutEquivalenceMatrix is the reordered-layout acceptance
// matrix: every algorithm × shards {2, 4}, with the degree-aware hub
// arena serving the cohort Gather stage, must stay byte-identical to the
// sequential golden engine (the layout changes where row bytes live,
// never what they are).
func TestEngineLayoutEquivalenceMatrix(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.Graph500(10, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	g.AttachWeights()
	g.AttachLabels(3)
	lay := graph.NewLayout(g, 0)
	if lay.Hubs == 0 {
		t.Fatal("RMAT graph produced no hub rows; layout not exercised")
	}
	for _, alg := range walk.Algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := walk.DefaultConfig(alg)
			cfg.WalkLength = 25
			cfg.Seed = 13
			qs, err := walk.RandomQueries(g, cfg, 400, 19)
			if err != nil {
				t.Fatal(err)
			}
			want, err := walk.Run(g, qs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 4} {
				for _, cohort := range []int{0, 16} {
					p, err := Partition(g, k)
					if err != nil {
						t.Fatal(err)
					}
					e, err := NewEngine(g, p, cfg, EngineConfig{Cohort: cohort, Layout: lay})
					if err != nil {
						t.Fatal(err)
					}
					got, _ := runEngine(t, e, qs)
					if got.Steps != want.Steps {
						t.Fatalf("k=%d cohort=%d: steps %d, want %d", k, cohort, got.Steps, want.Steps)
					}
					if !reflect.DeepEqual(got.Paths, want.Paths) {
						t.Fatalf("k=%d cohort=%d: layout run differs from golden engine", k, cohort)
					}
				}
			}
		})
	}
}

// TestEngineLayoutGraphMismatch pins the wrong-graph guard.
func TestEngineLayoutGraphMismatch(t *testing.T) {
	g := ringGraph(t, 64)
	other := ringGraph(t, 32)
	cfg := walk.DefaultConfig(walk.URW)
	cfg.WalkLength = 5
	p, err := Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(g, p, cfg, EngineConfig{Cohort: 4, Layout: graph.NewLayout(other, 0)}); err == nil {
		t.Fatal("layout over a different graph accepted")
	}
}

// TestEngineSteadyStateMigrationAllocs pins the tentpole property: after
// the first Run warms the engine's mesh pool, further Runs perform no
// per-migration heap allocation — the entire migration fabric (rings,
// records, path buffers, cohort lanes, scratch) is recycled. Only the
// per-Run bookkeeping (run struct, two channels, goroutine starts)
// remains, a constant independent of migration count.
func TestEngineSteadyStateMigrationAllocs(t *testing.T) {
	g := ringGraph(t, 256)
	cfg := walk.DefaultConfig(walk.URW)
	cfg.WalkLength = 80
	cfg.Seed = 3
	qs := make([]walk.Query, 1024)
	for i := range qs {
		qs[i] = walk.Query{ID: uint32(i), Start: graph.VertexID(i % 256)}
	}
	for _, ecfg := range []EngineConfig{
		{Workers: 4},
		{Workers: 4, Cohort: 32},
	} {
		p, err := Partition(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(g, p, cfg, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		emit := func(int, walk.Query, []graph.VertexID, int64) error { return nil }
		// Warm-up builds the mesh (rings, record pool, cohorts); the
		// engine's mesh cache is deterministic (not a GC-evictable
		// sync.Pool), so the very next Run must hit the steady state.
		if _, err := e.Run(context.Background(), qs, emit); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stats, err := e.Run(context.Background(), qs, emit)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Migrations < 1000 {
			t.Fatalf("cfg=%+v: only %d migrations; workload too small to pin the hot path", ecfg, stats.Migrations)
		}
		allocs := after.Mallocs - before.Mallocs
		if perMigration := float64(allocs) / float64(stats.Migrations); perMigration > 0.01 {
			t.Fatalf("cfg=%+v: %d allocs over %d migrations (%.4f/migration), want ~0",
				ecfg, allocs, stats.Migrations, perMigration)
		}
	}
}
