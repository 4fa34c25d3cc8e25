package main

import (
	"fmt"
	"slices"
	"sync"

	"ridgewalker"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/walk"
)

// checker verifies every reply the benchmark receives. Hops are checked
// against the base graph plus every edge the write stream ever inserted:
// the stream deletes only edges it inserted, so any graph the service
// can have served is a subgraph of that union.
type checker struct {
	g *ridgewalker.Graph

	mu       sync.Mutex
	inserted map[graph.Edge]bool
	err      error // first violation
	replies  int64 // replies checked
}

func newChecker(g *ridgewalker.Graph) *checker {
	return &checker{g: g, inserted: map[graph.Edge]bool{}}
}

// insert widens the hop check by edges the write stream added.
func (c *checker) insert(es []graph.Edge) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range es {
		c.inserted[e] = true
	}
}

// hasEdge reports whether u→v is in the base graph or was inserted.
func (c *checker) hasEdge(u, v graph.VertexID) bool {
	if c.g.HasEdge(u, v) {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inserted[graph.Edge{Src: u, Dst: v}]
}

// reply checks one successful reply: one path per query starting at its
// start vertex, every hop an edge, no path longer than the walk length,
// and Steps equal to the hops in the paths. The first violation is kept
// and fails the run.
func (c *checker) reply(cfg walk.Config, qs []walk.Query, res *walk.Result) error {
	err := c.verify(cfg, qs, res)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.replies++
	if err != nil && c.err == nil {
		c.err = err
	}
	return err
}

func (c *checker) verify(cfg walk.Config, qs []walk.Query, res *walk.Result) error {
	if res == nil {
		return fmt.Errorf("%v: nil result", cfg.Algorithm)
	}
	if len(res.Paths) != len(qs) {
		return fmt.Errorf("%v: %d paths for %d queries", cfg.Algorithm, len(res.Paths), len(qs))
	}
	c.mu.Lock()
	mutated := len(c.inserted) > 0
	c.mu.Unlock()
	if !mutated {
		// Unmutated graph: the library's own validator.
		if err := walk.ValidatePaths(c.g, res, cfg); err != nil {
			return fmt.Errorf("%v: %w", cfg.Algorithm, err)
		}
	}
	var steps int64
	for i, p := range res.Paths {
		if len(p) == 0 || p[0] != qs[i].Start {
			return fmt.Errorf("%v: query %d does not start at vertex %d", cfg.Algorithm, i, qs[i].Start)
		}
		steps += int64(len(p) - 1)
		if !mutated {
			continue
		}
		if len(p) > cfg.WalkLength+1 {
			return fmt.Errorf("%v: query %d path length %d exceeds %d", cfg.Algorithm, i, len(p), cfg.WalkLength+1)
		}
		for j := 1; j < len(p); j++ {
			if !c.hasEdge(p[j-1], p[j]) {
				return fmt.Errorf("%v: query %d hop %d: %d→%d is not an edge", cfg.Algorithm, i, j, p[j-1], p[j])
			}
		}
	}
	if steps != res.Steps {
		return fmt.Errorf("%v: reply claims %d steps, paths hold %d", cfg.Algorithm, res.Steps, steps)
	}
	return nil
}

// golden checks that a reply is byte-identical to the sequential
// reference engine on graph g (the graph the reply was served on).
func golden(g *ridgewalker.Graph, cfg walk.Config, qs []walk.Query, res *walk.Result) error {
	want, err := ridgewalker.Walk(g, qs, cfg)
	if err != nil {
		return fmt.Errorf("%v: reference walk: %w", cfg.Algorithm, err)
	}
	if want.Steps != res.Steps {
		return fmt.Errorf("%v: %d steps, reference %d", cfg.Algorithm, res.Steps, want.Steps)
	}
	for i := range want.Paths {
		if !slices.Equal(want.Paths[i], res.Paths[i]) {
			return fmt.Errorf("%v: query %d differs from the reference walk", cfg.Algorithm, i)
		}
	}
	return nil
}

// failure returns the first violation seen, if any.
func (c *checker) failure() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// fail records a violation found outside reply (golden mismatches).
func (c *checker) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
}
