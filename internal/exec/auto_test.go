package exec

import (
	"context"
	"reflect"
	"testing"

	"ridgewalker/internal/plan"
	"ridgewalker/internal/walk"
)

// fastCalibration keeps test probe sweeps tiny: few short queries, one
// timed repeat, and probing on the real graph (no subgraph sampling).
func fastCalibration() *plan.Options {
	return &plan.Options{Calibrate: true, Queries: 64, WalkLength: 8, Repeat: 1, SubgraphEdges: -1}
}

// TestAutoEquivalenceMatrix pins the auto backend's core contract:
// whatever engine and shape the planner resolves to, the trajectories
// are byte-identical to opening that backend by hand with the same
// knobs — across all five algorithms, on the static graph and under a
// mutated-snapshot serving view.
func TestAutoEquivalenceMatrix(t *testing.T) {
	g := testGraph(t)
	snap, _ := mutationFixture(t, g, "mixed")
	for _, alg := range walk.Algorithms {
		for _, view := range []string{"static", "mutated-snapshot"} {
			t.Run(alg.String()+"/"+view, func(t *testing.T) {
				cfg, qs := testWorkload(t, g, alg, 200)
				acfg := Config{Walk: cfg, Plan: fastCalibration()}
				if view == "mutated-snapshot" {
					acfg.Snapshot = snap
				}
				auto, err := Open("auto", g, acfg)
				if err != nil {
					t.Fatal(err)
				}
				defer auto.Close()
				got, err := auto.Run(context.Background(), Batch{Queries: qs})
				if err != nil {
					t.Fatal(err)
				}
				pr := got.Plan
				if pr == nil {
					t.Fatal("auto session attached no plan report")
				}
				if pr.Backend == "" || pr.Backend == "auto" {
					t.Fatalf("plan resolved to %q", pr.Backend)
				}
				// Re-run the resolved plan by hand.
				mcfg := Config{
					Walk:              cfg,
					Shards:            pr.Shards,
					Cohort:            pr.Cohort,
					HubCacheBytes:     pr.HubCacheBytes,
					MemoryBudgetBytes: pr.MemoryBudgetBytes,
					Snapshot:          acfg.Snapshot,
				}
				manual, err := Open(pr.Backend, g, mcfg)
				if err != nil {
					t.Fatal(err)
				}
				defer manual.Close()
				want, err := manual.Run(context.Background(), Batch{Queries: qs})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Paths, want.Paths) {
					t.Fatalf("auto (%s) diverged from manually opened %s", pr.Backend, pr.Backend)
				}
			})
		}
	}
}

// TestAutoRespectsMemoryBudget pins the planner's memory contract: a
// stated budget reaches the chosen session verbatim (the probe-side
// scaling never leaks into the plan), and the hub-cache knob — which
// the budget subsumes and the pipelined backend rejects alongside it —
// is dropped rather than forwarded.
func TestAutoRespectsMemoryBudget(t *testing.T) {
	g := testGraph(t)
	cfg, qs := testWorkload(t, g, walk.DeepWalk, 120)
	const budget = 1 << 16
	ses, err := Open("auto", g, Config{
		Walk:              cfg,
		Plan:              fastCalibration(),
		MemoryBudgetBytes: budget,
		HubCacheBytes:     1 << 20, // must be dropped, not forwarded
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	res, err := ses.Run(context.Background(), Batch{Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	pr := res.Plan
	if pr == nil {
		t.Fatal("no plan report")
	}
	if pr.MemoryBudgetBytes != budget {
		t.Fatalf("plan budget %d, want the stated %d", pr.MemoryBudgetBytes, budget)
	}
	if pr.HubCacheBytes != 0 {
		t.Fatalf("plan forwarded HubCacheBytes %d alongside a budget", pr.HubCacheBytes)
	}
	if res.Memory == nil {
		t.Fatal("budgeted auto session attached no memory report")
	}
	if got := res.Memory.GraphBudget + res.Memory.SamplerBudget; got > budget {
		t.Fatalf("session tier budgets %d exceed the stated budget %d", got, budget)
	}
}

// TestAutoSessionCapabilities: the wrapper must pass the chosen
// session's capabilities through — sampler sizing and the plan report —
// and the backend itself must declare the cpu-family capabilities its
// delegates hold.
func TestAutoSessionCapabilities(t *testing.T) {
	g := testGraph(t)
	cfg, _ := testWorkload(t, g, walk.DeepWalk, 10)
	ses, err := Open("auto", g, Config{Walk: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	rep, ok := ses.(PlanReporter)
	if !ok {
		t.Fatal("auto session does not implement PlanReporter")
	}
	pr := rep.PlanReport()
	if pr.Source != "stats" {
		t.Fatalf("zero-config auto open should plan from stats, got %q", pr.Source)
	}
	sizer, ok := ses.(SamplerSizer)
	if !ok {
		t.Fatal("auto session does not implement SamplerSizer")
	}
	if sizer.SamplerBytes() == 0 {
		t.Fatal("DeepWalk alias store size not delegated")
	}
}
