package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/walk"
)

// testGraph returns a weighted, labeled RMAT graph usable by every
// algorithm.
func testGraph(t testing.TB) *graph.CSR {
	t.Helper()
	g, err := graph.GenerateRMAT(graph.Graph500(10, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	g.AttachWeights()
	g.AttachLabels(3)
	return g
}

func testWorkload(t testing.TB, g *graph.CSR, alg walk.Algorithm, n int) (walk.Config, []walk.Query) {
	t.Helper()
	cfg := walk.DefaultConfig(alg)
	cfg.WalkLength = 20
	cfg.Seed = 11
	qs, err := walk.RandomQueries(g, cfg, n, 17)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, qs
}

func TestRegistryHasAllBackends(t *testing.T) {
	want := []string{"auto", "cpu", "cpu-pipelined", "cpu-sharded", "fastrw", "gsampler", "lightrw", "ridgewalker", "suetal"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		b, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name() != name || b.Description() == "" {
			t.Fatalf("backend %q: name %q, description %q", name, b.Name(), b.Description())
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestCPURunMatchesGoldenEngine asserts the cpu backend's Run output is
// byte-identical to walk.Run for every algorithm, at several worker counts.
func TestCPURunMatchesGoldenEngine(t *testing.T) {
	g := testGraph(t)
	for _, alg := range walk.Algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			cfg, qs := testWorkload(t, g, alg, 300)
			want, err := walk.Run(g, qs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				ses, err := Open("cpu", g, Config{Walk: cfg, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				got, err := ses.Run(context.Background(), Batch{Queries: qs})
				if err != nil {
					t.Fatal(err)
				}
				if got.Steps != want.Steps {
					t.Fatalf("workers=%d: steps %d, want %d", workers, got.Steps, want.Steps)
				}
				if !reflect.DeepEqual(got.Paths, want.Paths) {
					t.Fatalf("workers=%d: paths differ from walk.Run", workers)
				}
				// A second batch on the same session must be identical:
				// walker state reuse must not leak across batches.
				again, err := ses.Run(context.Background(), Batch{Queries: qs})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(again.Paths, want.Paths) {
					t.Fatalf("workers=%d: second batch differs", workers)
				}
				if err := ses.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestCPUStreamMatchesRun asserts streamed walks reassemble into exactly
// the Run result for every algorithm.
func TestCPUStreamMatchesRun(t *testing.T) {
	g := testGraph(t)
	for _, alg := range walk.Algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			cfg, qs := testWorkload(t, g, alg, 200)
			want, err := walk.Run(g, qs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ses, err := Open("cpu", g, Config{Walk: cfg, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer ses.Close()
			paths := make([][]graph.VertexID, len(qs))
			var steps int64
			err = ses.Stream(context.Background(), Batch{Queries: qs}, func(w WalkOutput) error {
				if paths[w.Query] != nil {
					return fmt.Errorf("query %d delivered twice", w.Query)
				}
				cp := make([]graph.VertexID, len(w.Path))
				copy(cp, w.Path)
				paths[w.Query] = cp
				steps += w.Steps
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if steps != want.Steps {
				t.Fatalf("streamed steps %d, want %d", steps, want.Steps)
			}
			if !reflect.DeepEqual(paths, want.Paths) {
				t.Fatal("streamed paths differ from walk.Run")
			}
		})
	}
}

// TestSimBackendsRunAndStream exercises every simulator-hosted backend
// through both entry points and validates the walks against the graph.
func TestSimBackendsRunAndStream(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator runs are slow")
	}
	g := testGraph(t)
	cfg, qs := testWorkload(t, g, walk.URW, 150)
	for _, name := range []string{"ridgewalker", "lightrw", "suetal"} {
		t.Run(name, func(t *testing.T) {
			ses, err := Open(name, g, Config{Walk: cfg})
			if err != nil {
				t.Fatal(err)
			}
			defer ses.Close()
			res, err := ses.Run(context.Background(), Batch{Queries: qs})
			if err != nil {
				t.Fatal(err)
			}
			if res.Sim == nil || res.Sim.QueriesDone != len(qs) {
				t.Fatalf("sim stats missing or incomplete: %+v", res.Sim)
			}
			if len(res.Paths) != len(qs) || res.Steps == 0 {
				t.Fatalf("paths %d steps %d", len(res.Paths), res.Steps)
			}
			if err := walk.ValidatePaths(g, &walk.Result{Paths: res.Paths}, cfg); err != nil {
				t.Fatal(err)
			}
			if name != "ridgewalker" && res.Model == nil {
				t.Fatal("baseline backend did not report a model result")
			}
			// Stream must deliver every query exactly once without keeping
			// paths, and repeated batches must be reproducible.
			seen := make(map[uint32]int)
			var steps int64
			err = ses.Stream(context.Background(), Batch{Queries: qs}, func(w WalkOutput) error {
				seen[w.Query]++
				steps += w.Steps
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != len(qs) {
				t.Fatalf("streamed %d distinct queries, want %d", len(seen), len(qs))
			}
			if steps != res.Steps {
				t.Fatalf("streamed steps %d, run steps %d (fresh accelerator per batch should reproduce)", steps, res.Steps)
			}
		})
	}
}

// TestAnalyticBackends checks the trace-driven backends price batches and
// report model results deterministically.
func TestAnalyticBackends(t *testing.T) {
	g := testGraph(t)
	cfg, qs := testWorkload(t, g, walk.URW, 300)
	for _, name := range []string{"fastrw", "gsampler"} {
		t.Run(name, func(t *testing.T) {
			ses, err := Open(name, g, Config{Walk: cfg, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer ses.Close()
			a, err := ses.Run(context.Background(), Batch{Queries: qs})
			if err != nil {
				t.Fatal(err)
			}
			if a.Model == nil || a.Model.ThroughputMSteps <= 0 {
				t.Fatalf("model result missing: %+v", a.Model)
			}
			if len(a.Paths) != len(qs) {
				t.Fatalf("paths %d, want %d", len(a.Paths), len(qs))
			}
			b, err := ses.Run(context.Background(), Batch{Queries: qs})
			if err != nil {
				t.Fatal(err)
			}
			if *a.Model != *b.Model {
				t.Fatalf("model not deterministic across batches:\n%+v\n%+v", a.Model, b.Model)
			}
		})
	}
}

// TestStreamLargeWorkloadWithoutMaterializing streams a >1M-step workload
// and checks that no path survives delivery — the buffer is recycled, so
// retaining it would corrupt earlier outputs, which the checksum detects.
func TestStreamLargeWorkloadWithoutMaterializing(t *testing.T) {
	g := testGraph(t)
	cfg := walk.DefaultConfig(walk.URW)
	cfg.WalkLength = 50
	cfg.Seed = 3
	qs, err := walk.RandomQueries(g, cfg, 40_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	ses, err := Open("cpu", g, Config{Walk: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	var walks, steps int64
	err = ses.Stream(context.Background(), Batch{Queries: qs}, func(w WalkOutput) error {
		walks++
		steps += w.Steps
		if int64(len(w.Path)-1) != w.Steps {
			return fmt.Errorf("query %d: path length %d vs steps %d", w.Query, len(w.Path), w.Steps)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if walks != int64(len(qs)) {
		t.Fatalf("delivered %d walks, want %d", walks, len(qs))
	}
	if steps < 1_000_000 {
		t.Fatalf("workload too small for the acceptance criterion: %d steps", steps)
	}
}

func TestStreamCallbackErrorStopsRun(t *testing.T) {
	g := testGraph(t)
	cfg, qs := testWorkload(t, g, walk.URW, 500)
	boom := errors.New("boom")
	for _, name := range []string{"cpu", "ridgewalker"} {
		t.Run(name, func(t *testing.T) {
			if name == "ridgewalker" && testing.Short() {
				t.Skip("simulator runs are slow")
			}
			ses, err := Open(name, g, Config{Walk: cfg})
			if err != nil {
				t.Fatal(err)
			}
			defer ses.Close()
			n := 0
			err = ses.Stream(context.Background(), Batch{Queries: qs}, func(WalkOutput) error {
				n++
				if n == 10 {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want %v", err, boom)
			}
		})
	}
}

func TestContextCancellation(t *testing.T) {
	g := testGraph(t)
	cfg, qs := testWorkload(t, g, walk.URW, 500)
	ses, err := Open("cpu", g, Config{Walk: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ses.Run(ctx, Batch{Queries: qs}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx: %v", err)
	}
	if err := ses.Stream(ctx, Batch{Queries: qs}, func(WalkOutput) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream on cancelled ctx: %v", err)
	}
}

func TestOpenValidatesWorkload(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.Balanced(8, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	// DeepWalk needs weights; this graph has none.
	cfg := walk.DefaultConfig(walk.DeepWalk)
	for _, name := range Names() {
		if _, err := Open(name, g, Config{Walk: cfg}); err == nil {
			t.Errorf("backend %q accepted DeepWalk on an unweighted graph", name)
		}
	}
}

func TestDiscardPaths(t *testing.T) {
	g := testGraph(t)
	cfg, qs := testWorkload(t, g, walk.URW, 100)
	ses, err := Open("cpu", g, Config{Walk: cfg, DiscardPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	res, err := ses.Run(context.Background(), Batch{Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths != nil {
		t.Fatal("DiscardPaths kept paths")
	}
	if res.Steps == 0 {
		t.Fatal("no steps counted")
	}
}

// TestWalkerZeroAllocations pins the zero-allocation claim of the CPU hot
// path: steady-state walking allocates nothing per step (and nothing per
// query) for any algorithm.
func TestWalkerZeroAllocations(t *testing.T) {
	g := testGraph(t)
	for _, alg := range walk.Algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			cfg, qs := testWorkload(t, g, alg, 64)
			w, err := walk.NewWalker(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Warm-up: let the buffer reach capacity.
			for _, q := range qs {
				w.Walk(q)
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				w.Walk(qs[i%len(qs)])
				i++
			})
			if allocs != 0 {
				t.Fatalf("%v allocs per walk, want 0", allocs)
			}
		})
	}
}

// TestMergesBatchesCapability pins which backends declare the one
// capability the serving layer keys on (batch merging, heartbeats,
// memory tiering, versioned graphs): exactly the cpu family and auto,
// never an unknown name.
func TestMergesBatchesCapability(t *testing.T) {
	want := map[string]bool{
		"cpu": true, "cpu-sharded": true, "cpu-pipelined": true, "auto": true,
		"ridgewalker": false, "lightrw": false, "suetal": false,
		"fastrw": false, "gsampler": false, "nope": false,
	}
	for name, m := range want {
		if got := IsCPUFamily(name); got != m {
			t.Errorf("IsCPUFamily(%q) = %v, want %v", name, got, m)
		}
	}
}
