package main

import (
	"math"
	"testing"
	"time"

	"ridgewalker"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/walk"
)

func TestNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {1, 1}, {50, 50}, {50.5, 51}, {99, 99}, {100, 100}} {
		if got := nearestRank(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(nearestRank(nil, 50)) {
		t.Error("empty sample should give NaN")
	}
}

// TestTailPercentile pins the "at least ten samples beyond" rule.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // 10 beyond p99.9
		{9999, 99, true},    // p99.9 leaves 9
		{1000, 99, true},
		{999, 98, true}, // p99 leaves 9
		{100, 90, true},
		{99, 75, true},
		{20, 50, true},
		{19, 0, false},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d: p%g %v, want p%g %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(got, c.n) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d beyond", c.n, got, c.n-rank(got, c.n))
		}
	}
}

func TestFailuresMissEveryLimit(t *testing.T) {
	var l latencies
	for i := 0; i < 98; i++ {
		l.ok(time.Millisecond)
	}
	l.fail()
	l.fail()
	if got := l.allAt(99); !math.IsInf(got, 1) {
		t.Errorf("p99 over all with 2%% failed = %g, want +Inf", got)
	}
	if got := l.allAt(50); got != 1 {
		t.Errorf("p50 over all = %g, want 1", got)
	}
	if s := l.summary(); s.N != 98 || s.Failed != 2 || s.P50 != 1 {
		t.Errorf("summary %+v", s)
	}
}

// synthPhase is a phase with n requests at latMs each, of which failed
// failed, a punctual generator and nothing outstanding.
func synthPhase(rate float64, n int, latMs float64, failed int) *phase {
	p := &phase{rate: rate}
	for i := 0; i < n; i++ {
		p.late.ok(100 * time.Microsecond)
		if i < failed {
			p.lat.fail()
			p.t.note(ridgewalker.ErrOverloaded)
			continue
		}
		p.lat.ok(time.Duration(latMs * float64(time.Millisecond)))
		p.t.note(nil)
	}
	return p
}

func TestSearchCapacity(t *testing.T) {
	ok := func(rate float64) *phase { return synthPhase(rate, 2000, 3, 0) }
	slow := func(rate float64) *phase { return synthPhase(rate, 2000, 30, 0) }
	shedding := func(rate float64) *phase { return synthPhase(rate, 2000, 3, 40) }
	late := func(rate float64) *phase {
		p := ok(rate)
		for i := range p.late.ms {
			p.late.ms[i] = 50
		}
		return p
	}
	backlog := func(rate float64) *phase {
		p := ok(rate)
		p.outstanding = 1000
		return p
	}
	for _, c := range []struct {
		name    string
		nominal *phase
		rungs   map[float64]func(float64) *phase
		want    float64
		sent    []float64
	}{
		{"all pass", ok(62.5), nil, 2000, []float64{125, 250, 500, 1000, 2000}},
		{"slow at 1000", ok(62.5), map[float64]func(float64) *phase{1000: slow}, 500, []float64{125, 250, 500, 1000}},
		{"shed at 500", ok(62.5), map[float64]func(float64) *phase{500: shedding}, 250, []float64{125, 250, 500}},
		{"late generator", ok(62.5), map[float64]func(float64) *phase{500: late}, 250, []float64{125, 250, 500}},
		{"growing backlog", ok(62.5), map[float64]func(float64) *phase{500: backlog}, 250, []float64{125, 250, 500}},
		{"nominal fails", slow(62.5), nil, 31.25, []float64{125, 31.25}},
		{"nothing passes", slow(62.5), map[float64]func(float64) *phase{31.25: slow}, 0, []float64{125, 31.25}},
	} {
		var sent []float64
		got, rungs := searchCapacity(c.nominal, func(rate float64) *phase {
			sent = append(sent, rate)
			if f := c.rungs[rate]; f != nil {
				return f(rate)
			}
			return ok(rate)
		})
		if got != c.want {
			t.Errorf("%s: capacity %g, want %g", c.name, got, c.want)
		}
		if len(rungs) != len(sent) || len(sent) != len(c.sent) {
			t.Errorf("%s: measured %v, want %v", c.name, sent, c.sent)
			continue
		}
		for i := range sent {
			if sent[i] != c.sent[i] {
				t.Errorf("%s: measured %v, want %v", c.name, sent, c.sent)
				break
			}
		}
	}
}

func TestCheckerRejectsCorruptPath(t *testing.T) {
	g := graph.SmallTestGraph()
	g.AttachWeights()
	cfg := walk.DefaultConfig(walk.DeepWalk)
	cfg.WalkLength = 6
	qs, err := walk.RandomQueries(g, cfg, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ridgewalker.Walk(g, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := newChecker(g).reply(cfg, qs, res); err != nil {
		t.Fatalf("valid reply rejected: %v", err)
	}
	if err := golden(g, cfg, qs, res); err != nil {
		t.Fatalf("reference reply rejected: %v", err)
	}
	clone := func() *walk.Result {
		c := &walk.Result{Steps: res.Steps}
		for _, p := range res.Paths {
			c.Paths = append(c.Paths, append([]graph.VertexID(nil), p...))
		}
		return c
	}
	// A hop to a vertex that is not a neighbor.
	bad := clone()
	i := 0
	for len(bad.Paths[i]) < 2 {
		i++
	}
	u := bad.Paths[i][0]
	var nonNbr graph.VertexID
	for v := 0; v < g.NumVertices; v++ {
		if !g.HasEdge(u, graph.VertexID(v)) {
			nonNbr = graph.VertexID(v)
			break
		}
	}
	bad.Paths[i][1] = nonNbr
	c := newChecker(g)
	if c.reply(cfg, qs, bad) == nil || c.failure() == nil {
		t.Error("corrupted hop accepted")
	}
	if golden(g, cfg, qs, bad) == nil {
		t.Error("corrupted hop matches the reference")
	}
	// The same hop passes once the write stream has inserted that edge.
	one := []walk.Query{{ID: 0, Start: u}}
	hop := &walk.Result{Paths: [][]graph.VertexID{{u, nonNbr}}, Steps: 1}
	if newChecker(g).reply(cfg, one, hop) == nil {
		t.Error("hop to a non-neighbor accepted")
	}
	c = newChecker(g)
	c.insert([]graph.Edge{{Src: u, Dst: nonNbr}})
	if err := c.reply(cfg, one, hop); err != nil {
		t.Errorf("hop over an inserted edge rejected: %v", err)
	}
	// Wrong start vertex, wrong step count, missing path.
	bad = clone()
	bad.Paths[0][0]++
	if newChecker(g).reply(cfg, qs, bad) == nil {
		t.Error("wrong start accepted")
	}
	bad = clone()
	bad.Steps++
	if newChecker(g).reply(cfg, qs, bad) == nil {
		t.Error("wrong step count accepted")
	}
	bad = clone()
	bad.Paths = bad.Paths[1:]
	if newChecker(g).reply(cfg, qs, bad) == nil {
		t.Error("missing path accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "service.Submit", Start: 0, End: 100},
		// Overlapping in-interval children count once: [10,50) covers 40.
		{ID: 2, Parent: 1, Name: "exec.a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "exec.b", Start: 20, End: 50},
		// A child running past the parent is clipped to [90,100).
		{ID: 4, Parent: 1, Name: "exec.c", Start: 90, End: 120},
		// A grandchild is charged to its parent, not to span 1.
		{ID: 5, Parent: 2, Name: "walk.d", Start: 12, End: 18},
		// A replay outside the interval stands in for nested work.
		{ID: 6, Parent: 1, Name: "exec.replay", Start: 200, End: 225, Replay: true},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 100 - 40 - 10 - 25, 2: 20 - 6, 3: 30, 4: 30, 5: 6, 6: 25}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %d, want %d", id, self[id], w)
		}
	}
	ls := layerSelf(spans)
	if ls["service"].Self != 25 || ls["exec"].Spans != 4 || ls["walk"].Self != 6 {
		t.Errorf("layer totals %+v", ls)
	}
}

// TestWindowMedian pins the gated serve figures as medians over
// one-second windows: a cascade that fails one window leaves them alone,
// and a window with no successful request counts as over every latency
// limit.
func TestWindowMedian(t *testing.T) {
	p := &phase{rate: 100}
	for s := 0; s < 5; s++ {
		for i := 0; i < 10; i++ {
			w := p.window(time.Duration(s)*time.Second + time.Duration(i)*100*time.Millisecond)
			if s == 2 {
				w.fail() // second 2 sheds everything
				continue
			}
			w.ok(time.Duration(i+1) * time.Millisecond)
		}
	}
	if got := p.windowMedian(windowAt(50)); got != 5 {
		t.Errorf("one shed window: p50 %g, want 5", got)
	}
	if got := p.windowMedian(windowAt(90)); got != 9 {
		t.Errorf("one shed window: p90 %g, want 9", got)
	}
	shed := &phase{rate: 100}
	for s := 0; s < 3; s++ {
		shed.window(time.Duration(s) * time.Second).fail()
	}
	if got := overLimit(shed.windowMedian(windowAt(50))); got != overLimitMs {
		t.Errorf("all shed: p50 %g, want %g", got, float64(overLimitMs))
	}
}
