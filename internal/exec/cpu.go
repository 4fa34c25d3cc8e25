package exec

import (
	"context"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/walk"
)

func init() {
	Register(cpuBackend{})
}

// cpuBackend is the ThunderRW-style multi-core software engine: a fixed
// pool of walkers, each owning a reused path buffer and RNG stream,
// walks queries depth-first with zero allocations per step. It is the
// reference the other CPU engines are measured against and the circuit
// breaker's known-good fallback.
type cpuBackend struct{}

func (cpuBackend) Name() string { return "cpu" }

func (cpuBackend) Description() string {
	return "multi-core software engine (ThunderRW-style), allocation-free hot path"
}

// MergesBatches implements CPUFamily.
func (cpuBackend) MergesBatches() bool { return true }

func (cpuBackend) Open(g *graph.CSR, cfg Config) (Session, error) {
	workers, err := poolWorkers("cpu", cfg)
	if err != nil {
		return nil, err
	}
	// One sampler (flat alias store, schema state) borrowed read-only
	// from the process-wide registry — shared with every other session
	// whose configuration maps to the same sampler spec — and one walker
	// (reused buffer + RNG) per worker. A memory budget swaps both
	// borrows for their tiered counterparts; each walker then advances
	// through its own TierView (per-worker cold-row decode scratch).
	ref, ts, err := acquireWalkState(g, cfg)
	if err != nil {
		return nil, err
	}
	walkers := make([]*walk.Walker, workers)
	for i := range walkers {
		walkers[i] = walk.NewWalkerWithSampler(g, cfg.Walk, ref.Sampler())
		if ts != nil {
			walkers[i].SetTierView(graph.NewTierView(ts.gref.Store()))
		}
		if cfg.Snapshot != nil {
			walkers[i].SetSnapshot(cfg.Snapshot)
		}
	}
	run := func(ctx context.Context, batch Batch, emit walk.EmitFunc) error {
		hb := batch.Heartbeat
		return runChunked(ctx, len(batch.Queries), workers, func(w, lo, hi int, stopped func() bool) error {
			walker := walkers[w]
			for i := lo; i < hi; i++ {
				if i&0x3f == 0 {
					if hb != nil {
						hb.Add(1)
					}
					if stopped() {
						return stoppedErr(ctx)
					}
				}
				q := batch.Queries[i]
				path, steps := walker.Walk(q)
				if err := emit(i, q, path, steps); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return newSession("cpu", cfg, ref, ts, false, run), nil
}
