package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ridgewalker"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
	"ridgewalker/internal/walk"
)

// The serve-mutate workload: serve's read traffic at mutateReadRPS plus
// a write stream of writeRate batches per second of writeBatch edges,
// alternating inserts of fresh edges with deletes of the edges the
// previous batch inserted, and a CompactGraph every compactEvery batches.
const (
	// writeRate is below the 5 batches/s first proposed. Every write
	// batch opens a graph epoch, and the next read of each class in it
	// rebuilds that class's sampler state, which can stall reads for a
	// second. The Service keeps NewService's unbounded in-flight budget,
	// so it sheds nothing and a rebuild shows as read latency. At 5
	// batches/s and 50 reads/s the rebuilds fell behind in some runs and
	// the backlog grew for the rest of the phase; at 2 batches/s that
	// still happened in one run of twenty. At 1 batch/s the median read
	// is a fast one and the rebuilds set the tail.
	writeRate     = 1
	mutateReadRPS = 50
	writeBatch    = 64
	// compactEvery is 10 batches, 10 s at writeRate, so a 20 s run
	// compacts twice.
	compactEvery = 10
	// goldenCandidates reads of each phase, picked by seed, are golden
	// candidates; the first goldenSamples of them served within one epoch
	// are compared with the reference engine on that epoch's graph.
	goldenCandidates = 16
	goldenSamples    = 4
)

// writeStream generates the write batches from a seed.
type writeStream struct {
	g    *ridgewalker.Graph
	r    *rng.Stream
	live []graph.Edge // the last insert batch, deleted by the next batch
	n    int
}

// next returns the next batch and whether it inserts.
func (w *writeStream) next() ([]graph.Edge, bool) {
	w.n++
	if w.n%2 == 0 {
		del := w.live
		w.live = nil
		return del, false
	}
	seen := map[graph.Edge]bool{}
	for len(w.live) < writeBatch {
		e := graph.Edge{Src: graph.VertexID(w.r.Intn(w.g.NumVertices)), Dst: graph.VertexID(w.r.Intn(w.g.NumVertices))}
		if e.Src == e.Dst || seen[e] || w.g.HasEdge(e.Src, e.Dst) {
			continue
		}
		seen[e] = true
		w.live = append(w.live, e)
	}
	return w.live, true
}

// writeOp is one logged mutation, replayed to rebuild an epoch's graph.
type writeOp struct {
	edges   []graph.Edge
	insert  bool
	compact bool
}

// goldenRead is a reply served within a single epoch.
type goldenRead struct {
	index int // in the phase's schedule
	epoch uint64
	cfg   walk.Config
	qs    []walk.Query
	res   *walk.Result
}

func runServeMutate(e *env) error {
	rd, err := newReader(e, serveScale)
	if err != nil {
		return err
	}
	defer rd.close()

	var writes, compacts latencies
	var wt tally
	var log []writeOp
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ws := &writeStream{g: rd.g, r: rng.New(e.seed ^ 0x77)}
		tick := time.NewTicker(time.Second / writeRate)
		defer tick.Stop()
		for batch := 1; ; batch++ {
			edges, insert := ws.next()
			if insert {
				e.checker.insert(edges)
			}
			t := time.Now()
			var err error
			if insert {
				err = rd.svc.InsertEdges(edges)
			} else {
				err = rd.svc.DeleteEdges(edges)
			}
			d := time.Since(t)
			wt.note(err)
			if err != nil {
				writes.fail()
				e.checker.fail(fmt.Errorf("write batch %d: %w", batch, err))
			} else {
				writes.ok(d)
				log = append(log, writeOp{edges: edges, insert: insert})
			}
			if batch%compactEvery == 0 {
				t := time.Now()
				rd.svc.CompactGraph()
				compacts.ok(time.Since(t))
				wt.note(nil)
				log = append(log, writeOp{compact: true})
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	p := rd.run(mutateReadRPS, e.budget, true)
	close(stop)
	wg.Wait()
	e.tally.add(wt)

	sum := p.lat.summary()
	ws := writes.summary()
	e.put("ok_p50_ms", sum.P50, "ms")
	e.put("aux_ms", ws.P50, "ms")
	var all tally
	all.add(p.t)
	all.add(wt)
	e.logf("# reads: %v", p)
	e.logf("# writes: %s, compactions: %s", fmtSummary(ws), fmtSummary(compacts.summary()))
	logReads(e, p)
	e.logf("write_p50_ms %.6g ms (n=%d)", ws.P50, ws.N)
	e.logf("write_p90_ms %.6g ms (n=%d; nearest rank, fewer than ten beyond below 100 writes)", writes.at(90), ws.N)
	e.logf("compact_ms %.6g ms (n=%d)", compacts.at(50), len(compacts.ms))
	e.logf("fail_frac %.6g ratio (reads and writes)", all.failFrac())
	logPlans(e, rd.svc)

	if err := checkGoldens(rd.g, log, p.golds); err != nil {
		e.checker.fail(err)
	}
	e.logf("# golden reads checked: %d", min(len(p.golds), goldenSamples))
	if e.tr != nil {
		reportReplays(e, p)
		return layerSuite(e, rd.svc, rd.g, rd.cfgs, rd.pool)
	}
	return nil
}

// checkGoldens takes the first goldenSamples candidates in schedule
// order, rebuilds each one's epoch by replaying the write log on a fresh
// versioned copy of the base graph, folds it into a CSR, and compares
// the read with the reference engine on that graph.
func checkGoldens(base *ridgewalker.Graph, log []writeOp, golds []goldenRead) error {
	sort.Slice(golds, func(i, j int) bool { return golds[i].index < golds[j].index })
	for _, gd := range golds[:min(len(golds), goldenSamples)] {
		vg := graph.NewVersioned(base)
		for _, op := range log {
			if vg.Epoch() == gd.epoch {
				break
			}
			var err error
			switch {
			case op.compact:
				vg.Compact()
			case op.insert:
				err = vg.InsertEdges(op.edges)
			default:
				err = vg.DeleteEdges(op.edges)
			}
			if err != nil {
				return fmt.Errorf("replaying writes: %w", err)
			}
		}
		if vg.Epoch() != gd.epoch {
			return fmt.Errorf("write log ends at epoch %d, read was served at %d", vg.Epoch(), gd.epoch)
		}
		if err := golden(vg.Compact(), gd.cfg, gd.qs, gd.res); err != nil {
			return fmt.Errorf("epoch %d: %w", gd.epoch, err)
		}
	}
	return nil
}
