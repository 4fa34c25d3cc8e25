package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"ridgewalker/internal/fault"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/sampling"
	"ridgewalker/internal/walk"
)

// runFunc drives one CPU engine over a batch, calling emit once per
// finished walk with the query's batch index. Emits may arrive
// concurrently from the engine's workers; the path aliases a recycled
// buffer and is valid only during the call.
type runFunc func(ctx context.Context, batch Batch, emit walk.EmitFunc) error

// cpuSession is the one Session implementation behind the CPU backends
// (cpu, cpu-pipelined, cpu-sharded). It owns everything they share: the
// session lock and closed check, the BatchExec fault check, path copies
// and step totals, serialized Stream delivery, and the borrowed sampler
// and tier stores. A backend supplies only the run function — a
// per-worker pool of Walkers or Pipelines driven through runChunked, or
// a shard.Engine.
type cpuSession struct {
	// mu serializes runs on pooled engines, whose workers hold
	// single-batch state; the sharded engine accepts concurrent runs
	// (shared set), so they take mu shared and only Close excludes them.
	mu      sync.RWMutex
	shared  bool
	tag     string // opening backend's name; discriminates BatchExec faults
	discard bool
	sampler *sampling.SamplerRef
	tier    *tierState
	run     runFunc // nil once closed
}

// newSession binds a run function to the session plumbing. ref and ts
// are the borrows acquireWalkState returned; Close releases them.
func newSession(tag string, cfg Config, ref *sampling.SamplerRef, ts *tierState, shared bool, run runFunc) *cpuSession {
	return &cpuSession{shared: shared, tag: tag, discard: cfg.DiscardPaths, sampler: ref, tier: ts, run: run}
}

// exec runs batch under the session lock and returns the session's
// memory report (nil for untiered sessions) with the outcome.
func (s *cpuSession) exec(ctx context.Context, batch Batch, emit walk.EmitFunc) (*MemoryReport, error) {
	if s.shared {
		s.mu.RLock()
		defer s.mu.RUnlock()
	} else {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	if s.run == nil {
		return nil, fmt.Errorf("exec: session is closed")
	}
	if err := fault.CheckTag(fault.BatchExec, s.tag); err != nil {
		return nil, err
	}
	if err := s.run(ctx, batch, emit); err != nil {
		return nil, err
	}
	return s.tier.report(), nil
}

func (s *cpuSession) Run(ctx context.Context, batch Batch) (*BatchResult, error) {
	res := &BatchResult{}
	if !s.discard {
		res.Paths = make([][]graph.VertexID, len(batch.Queries))
	}
	// Each batch index is finished exactly once, so the per-slot writes
	// need no lock.
	var steps atomic.Int64
	mem, err := s.exec(ctx, batch, func(i int, _ walk.Query, path []graph.VertexID, st int64) error {
		if res.Paths != nil {
			res.Paths[i] = slices.Clone(path)
		}
		steps.Add(st)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Steps = steps.Load()
	res.Memory = mem
	return res, nil
}

func (s *cpuSession) Stream(ctx context.Context, batch Batch, fn func(WalkOutput) error) error {
	return s.streamIndexed(ctx, batch, func(_ int, w WalkOutput) error { return fn(w) })
}

// streamIndexed is Stream plus the query's batch index — used by the
// analytic backends, whose pricing models need walk lengths in input order.
// Like Stream, fn is never called concurrently and the path is reused.
func (s *cpuSession) streamIndexed(ctx context.Context, batch Batch, fn func(index int, w WalkOutput) error) error {
	var outMu sync.Mutex // fn contract: never called concurrently
	_, err := s.exec(ctx, batch, func(i int, q walk.Query, path []graph.VertexID, st int64) error {
		outMu.Lock()
		defer outMu.Unlock()
		return fn(i, WalkOutput{Query: q.ID, Path: path, Steps: st})
	})
	return err
}

// MemoryReport implements MemoryReporter (nil for untiered sessions).
func (s *cpuSession) MemoryReport() *MemoryReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tier.report()
}

// SamplerBytes implements SamplerSizer: the resident size of the
// session's (shared) sampler state.
func (s *cpuSession) SamplerBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.sampler == nil {
		return 0
	}
	return sampling.Footprint(s.sampler.Sampler())
}

func (s *cpuSession) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.run = nil
	if s.sampler != nil {
		s.sampler.Release()
		s.sampler = nil
	}
	s.tier.release() // idempotent with the sampler release above
	s.tier = nil
	return nil
}

// poolWorkers resolves Config.Workers for the pooled engines.
func poolWorkers(tag string, cfg Config) (int, error) {
	if cfg.Workers < 0 {
		return 0, fmt.Errorf("exec: %s workers %d, want >= 0", tag, cfg.Workers)
	}
	if cfg.Workers == 0 {
		return runtime.GOMAXPROCS(0), nil
	}
	return cfg.Workers, nil
}

// errStopped is returned by a worker to bail out quietly after another
// worker already failed; it is never surfaced to callers.
var errStopped = errors.New("exec: stopped")

// runChunked is the pooled engines' fan-out scaffolding: it partitions
// [0, n) into contiguous per-worker chunks and runs each chunk on its own
// goroutine through run(worker, lo, hi, stopped). run should poll
// stopped() periodically and then return ctx.Err() if the context was
// cancelled or errStopped to stand down after another worker's failure.
// The first real error wins; otherwise the context error (if any) is
// returned.
func runChunked(ctx context.Context, n, workers int, run func(w, lo, hi int, stopped func() bool) error) error {
	var (
		stop     atomic.Bool
		firstErr error
		errMu    sync.Mutex
		wg       sync.WaitGroup
	)
	stopped := func() bool { return stop.Load() || ctx.Err() != nil }
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			// Panic firewall: a crash in one worker's chunk (walker bug,
			// corrupted row, injected fault) becomes a typed engine fault
			// that fails the batch, never the process.
			err := fault.Contain("exec-worker", func() error {
				return run(w, lo, hi, stopped)
			})
			if err != nil && err != errStopped {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				stop.Store(true)
			}
		}(w, lo, hi)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// stoppedErr maps a worker's cooperative stop to the error runChunked
// expects: the context's when it was cancelled, errStopped otherwise.
func stoppedErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return errStopped
}
