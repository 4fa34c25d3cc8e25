package plan

import (
	"reflect"
	"testing"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/walk"
)

func testGraph(t *testing.T) *graph.CSR {
	t.Helper()
	g, err := graph.GenerateRMAT(graph.Graph500(10, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	g.AttachWeights()
	g.AttachLabels(3)
	return g
}

// handGraph builds a tiny CSR with known degrees 3, 0, 1, 2.
func handGraph() *graph.CSR {
	return &graph.CSR{
		NumVertices: 4,
		RowPtr:      []int64{0, 3, 3, 4, 6},
		Col:         []graph.VertexID{1, 2, 3, 0, 0, 1},
		Directed:    true,
	}
}

func TestComputeStats(t *testing.T) {
	st := ComputeStats(handGraph(), nil)
	if st.Vertices != 4 || st.Edges != 6 {
		t.Fatalf("dims = %d/%d, want 4/6", st.Vertices, st.Edges)
	}
	if st.ZeroOutDegree != 1 {
		t.Fatalf("sinks = %d, want 1", st.ZeroOutDegree)
	}
	if st.MaxDegree != 3 || st.AvgDegree != 1.5 {
		t.Fatalf("degree max/avg = %d/%g, want 3/1.5", st.MaxDegree, st.AvgDegree)
	}
	// Top-1% cut on 4 vertices is 1 vertex; the highest bucket (degrees
	// {3,2}, mass 5) is consumed half a vertex deep: hub = ⌊0.5·5⌋ = 2.
	if want := 2.0 / 6.0; st.HubMass != want {
		t.Fatalf("hub mass = %g, want %g", st.HubMass, want)
	}
	if st.Weighted || st.Labeled {
		t.Fatal("payload flags set on a bare graph")
	}
	if st.Epoch != 0 || st.OverlayDirtyFraction != 0 {
		t.Fatal("overlay stats nonzero without a snapshot")
	}
}

func TestCandidatesSingleCore(t *testing.T) {
	st := ComputeStats(testGraph(t), nil)
	got := Candidates(st, Constraints{Workers: 1})
	want := []Candidate{
		{Backend: "cpu"},
		{Backend: "cpu-pipelined", Cohort: 16},
		{Backend: "cpu-pipelined", Cohort: 64},
		{Backend: "cpu-pipelined", Cohort: 256},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("single-core candidates = %v, want %v (no sharded shapes on one core)", got, want)
	}
}

func TestCandidatesMultiCoreAndPins(t *testing.T) {
	st := ComputeStats(testGraph(t), nil)
	got := Candidates(st, Constraints{Workers: 4})
	want := []Candidate{
		{Backend: "cpu"},
		{Backend: "cpu-pipelined", Cohort: 16},
		{Backend: "cpu-pipelined", Cohort: 64},
		{Backend: "cpu-pipelined", Cohort: 256},
		{Backend: "cpu-pipelined", Cohort: 16, Shards: 4},
		{Backend: "cpu-pipelined", Cohort: 64, Shards: 4},
		{Backend: "cpu-pipelined", Cohort: 256, Shards: 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("multicore candidates = %v, want %v", got, want)
	}
	// Shard counts clamp at 8 regardless of worker count.
	for _, c := range Candidates(st, Constraints{Workers: 32}) {
		if c.Shards > 8 {
			t.Fatalf("candidate %v exceeds the shard clamp", c)
		}
	}
	// A pinned cohort collapses the pipelined sweep to that width.
	for _, c := range Candidates(st, Constraints{Workers: 1, Cohort: 32}) {
		if c.Backend == "cpu-pipelined" && c.Cohort != 32 {
			t.Fatalf("pinned cohort ignored: %v", c)
		}
	}
	// A pinned shard count drops every unsharded shape.
	pinned := Candidates(st, Constraints{Workers: 1, Shards: 2})
	if len(pinned) == 0 {
		t.Fatal("no candidates under pinned shards")
	}
	for _, c := range pinned {
		if c.Shards != 2 {
			t.Fatalf("pinned shards ignored: %v", c)
		}
	}
	// Shards can never exceed the vertex count; when the clamp removes
	// every pinned-shard shape the fallback is the flat engine.
	tiny := GraphStats{Vertices: 1}
	fb := Candidates(tiny, Constraints{Workers: 4, Shards: 2})
	if !reflect.DeepEqual(fb, []Candidate{{Backend: "cpu"}}) {
		t.Fatalf("vertex-clamped fallback = %v, want [{cpu}]", fb)
	}
}

// TestDecidePicksFastestAndIsPure: Decide is a pure function — same
// inputs, same plan — that picks the fastest surviving measurement,
// skipping failed probes and breaking ties toward the earlier
// (deterministically ordered) candidate.
func TestDecidePicksFastestAndIsPure(t *testing.T) {
	st := ComputeStats(testGraph(t), nil)
	cons := Constraints{Workers: 1}
	ms := []Measurement{
		{Candidate: Candidate{Backend: "cpu"}, StepsPerSec: 500},
		{Candidate: Candidate{Backend: "cpu-pipelined", Cohort: 16}, Err: "probe failed"},
		{Candidate: Candidate{Backend: "cpu-pipelined", Cohort: 64}, StepsPerSec: 900},
		{Candidate: Candidate{Backend: "cpu-pipelined", Cohort: 256}, StepsPerSec: 900},
	}
	p1 := Decide(st, cons, ms)
	p2 := Decide(st, cons, ms)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("Decide is not deterministic on identical inputs")
	}
	if p1.Backend != "cpu-pipelined" || p1.Cohort != 64 {
		t.Fatalf("chose %v, want the first of the tied fastest (cpu-pipelined c64)", p1.Candidate)
	}
	if p1.Source != "calibrated" || p1.PredictedStepsPerSec != 900 {
		t.Fatalf("source/predicted = %q/%g", p1.Source, p1.PredictedStepsPerSec)
	}
	// All probes failing degrades to the stats fallback.
	failed := []Measurement{{Candidate: Candidate{Backend: "cpu"}, Err: "x"}}
	if p := Decide(st, cons, failed); p.Source != "stats" {
		t.Fatalf("all-failed calibration should fall back to stats, got %q", p.Source)
	}
}

func TestDecideMemoryKnobs(t *testing.T) {
	st := ComputeStats(testGraph(t), nil)
	// A stated budget passes through verbatim and suppresses the hub pin.
	p := Decide(st, Constraints{Workers: 1, MemoryBudgetBytes: 1 << 20, HubCacheBytes: 1 << 16}, nil)
	if p.MemoryBudgetBytes != 1<<20 {
		t.Fatalf("budget = %d, want %d", p.MemoryBudgetBytes, 1<<20)
	}
	if p.HubCacheBytes != 0 {
		t.Fatalf("hub cache forwarded alongside a budget: %d", p.HubCacheBytes)
	}
	// Without a budget the hub pin passes through.
	p = Decide(st, Constraints{Workers: 1, HubCacheBytes: 1 << 16}, nil)
	if p.HubCacheBytes != 1<<16 || p.MemoryBudgetBytes != 0 {
		t.Fatalf("hub/budget = %d/%d, want %d/0", p.HubCacheBytes, p.MemoryBudgetBytes, 1<<16)
	}
}

func TestDecideStatsFallback(t *testing.T) {
	st := ComputeStats(testGraph(t), nil)
	// One core: the cohort pipeline at the middle width.
	p := Decide(st, Constraints{Workers: 1}, nil)
	if p.Backend != "cpu-pipelined" || p.Cohort != 64 || p.Shards != 0 {
		t.Fatalf("single-core fallback = %v", p.Candidate)
	}
	if p.Source != "stats" {
		t.Fatalf("source = %q, want stats", p.Source)
	}
	// Multicore: the sharded cohort pipeline.
	p = Decide(st, Constraints{Workers: 4}, nil)
	if p.Backend != "cpu-pipelined" || p.Shards != 4 {
		t.Fatalf("multicore fallback = %v", p.Candidate)
	}
}

func TestProbeConfigDeterministic(t *testing.T) {
	cfg := walk.DefaultConfig(walk.PPR)
	cfg.WalkLength = 123
	cfg.Seed = 456
	cfg.Alpha = 0.25
	p1 := ProbeConfig(cfg, Options{})
	p2 := ProbeConfig(cfg, Options{})
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("probe config differs across identical calls")
	}
	if p1.WalkLength != 123 || p1.Seed != defaultSeed {
		t.Fatalf("probe walk/seed = %d/%d, want the serving length 123 and the default seed", p1.WalkLength, p1.Seed)
	}
	// Extreme lengths clamp, degenerate ones fall back, pins win.
	long := cfg
	long.WalkLength = 5000
	if got := ProbeConfig(long, Options{}).WalkLength; got != probeWalkLenMax {
		t.Fatalf("probe length %d, want clamp %d", got, probeWalkLenMax)
	}
	zero := cfg
	zero.WalkLength = 0
	if got := ProbeConfig(zero, Options{}).WalkLength; got != defaultProbeWalkLen {
		t.Fatalf("probe length %d, want fallback %d", got, defaultProbeWalkLen)
	}
	if got := ProbeConfig(cfg, Options{WalkLength: 7}).WalkLength; got != 7 {
		t.Fatalf("probe length %d, want the pinned 7", got)
	}
	if p1.Algorithm != walk.PPR || p1.Alpha != 0.25 {
		t.Fatal("probe config lost the class's algorithm parameters")
	}
	// The probe workload itself is seed-deterministic.
	g := testGraph(t)
	q1, err := walk.RandomQueries(g, p1, 64, Options{}.withDefaults().Seed)
	if err != nil {
		t.Fatal(err)
	}
	q2, _ := walk.RandomQueries(g, p2, 64, Options{}.withDefaults().Seed)
	if !reflect.DeepEqual(q1, q2) {
		t.Fatal("probe queries differ under a fixed seed")
	}
}

func TestSampleSubgraph(t *testing.T) {
	g := testGraph(t)
	e := g.NumEdges()
	target := e / 4
	sub := SampleSubgraph(g, target)
	if sub == g {
		t.Fatal("sampling above target returned the original graph")
	}
	if got := sub.NumEdges(); got != target {
		t.Fatalf("sampled edges = %d, want exactly %d (shared-remainder scaling)", got, target)
	}
	if sub.NumVertices != g.NumVertices {
		t.Fatal("sampling dropped vertices")
	}
	// Each row is a prefix of the original row, weights aligned.
	for v := 0; v < g.NumVertices; v++ {
		n := sub.RowPtr[v+1] - sub.RowPtr[v]
		if n > g.RowPtr[v+1]-g.RowPtr[v] {
			t.Fatalf("vertex %d grew its row", v)
		}
		for i := int64(0); i < n; i++ {
			if sub.Col[sub.RowPtr[v]+i] != g.Col[g.RowPtr[v]+i] {
				t.Fatalf("vertex %d row is not a prefix of the original", v)
			}
			if sub.Weights[sub.RowPtr[v]+i] != g.Weights[g.RowPtr[v]+i] {
				t.Fatalf("vertex %d weights misaligned", v)
			}
		}
	}
	// Deterministic: two samples are identical.
	if again := SampleSubgraph(g, target); !reflect.DeepEqual(sub.RowPtr, again.RowPtr) || !reflect.DeepEqual(sub.Col, again.Col) {
		t.Fatal("sampling is not deterministic")
	}
	// At or under the target the graph passes through untouched.
	if SampleSubgraph(g, e) != g {
		t.Fatal("graph at target was copied")
	}
}

// fixedProbe steps at a constant fabricated rate.
type fixedProbe struct{ sps float64 }

func (p fixedProbe) Step() (float64, error) { return p.sps, nil }
func (p fixedProbe) Close() error           { return nil }

// fixedRunner fabricates probe results from a fixed table, making
// planner behavior a pure function of the candidate list.
func fixedRunner(sps map[string]float64) ProbeRunner {
	return func(_ *graph.CSR, cand Candidate, _ walk.Config, _ []walk.Query, _ int64) (Probe, error) {
		return fixedProbe{sps: sps[cand.String()]}, nil
	}
}

// TestPlannerDeterministicAndDrift: two planners over the same graph,
// options, and probe outcomes resolve identical plans; a served-rate
// drift beyond the factor marks the class stale and the next PlanFor
// advances the revision — changing the fingerprint so serving layers
// start fresh sessions instead of tearing live ones.
func TestPlannerDeterministicAndDrift(t *testing.T) {
	g := testGraph(t)
	cfg := walk.DefaultConfig(walk.URW)
	opts := Options{Calibrate: true, Queries: 16, WalkLength: 4, Repeat: 1,
		SubgraphEdges: -1, MinObservations: 1, DriftFactor: 1.5}
	runner := fixedRunner(map[string]float64{
		"cpu":                100,
		"cpu-pipelined c16":  300,
		"cpu-pipelined c64":  200,
		"cpu-pipelined c256": 150,
	})
	cons := Constraints{Workers: 1}
	p1 := New(g, cons, opts, runner)
	p2 := New(g, cons, opts, runner)
	pl1, err := p1.PlanFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl2, err := p2.PlanFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pl1.Fingerprint() != pl2.Fingerprint() {
		t.Fatalf("planners diverged: %s vs %s", pl1.Fingerprint(), pl2.Fingerprint())
	}
	if pl1.Backend != "cpu-pipelined" || pl1.Cohort != 16 {
		t.Fatalf("plan = %v, want the fabricated winner cpu-pipelined c16", pl1.Candidate)
	}
	if pl1.Revision != 0 || pl1.Source != "calibrated" {
		t.Fatalf("revision/source = %d/%q", pl1.Revision, pl1.Source)
	}
	// Cached: a second request re-uses the plan without recalibrating.
	again, _ := p1.PlanFor(cfg)
	if again.Fingerprint() != pl1.Fingerprint() {
		t.Fatal("cached plan changed without any trigger")
	}
	// Settle the EWMA (MinObservations 1 adopts the first level), then
	// drift far beyond the factor.
	p1.Observe(cfg, 100)
	p1.Observe(cfg, 1000)
	repl, err := p1.PlanFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if repl.Revision != pl1.Revision+1 {
		t.Fatalf("revision after drift = %d, want %d", repl.Revision, pl1.Revision+1)
	}
	if repl.Source != "replanned" {
		t.Fatalf("source after drift = %q, want replanned", repl.Source)
	}
	if repl.Fingerprint() == pl1.Fingerprint() {
		t.Fatal("drift re-plan kept the old fingerprint")
	}
	st := p1.Status()
	if len(st) != 1 || st[0].Recalibrations != 1 {
		t.Fatalf("status = %+v, want one class with one recalibration", st)
	}
}
