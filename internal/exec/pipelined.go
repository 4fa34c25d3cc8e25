package exec

import (
	"context"
	"fmt"
	"runtime"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/sampling"
	"ridgewalker/internal/shard"
	"ridgewalker/internal/walk"
)

func init() {
	Register(pipelinedBackend{})
	Register(shardedBackend{})
}

// pipelinedBackend is the step-interleaved software engine: the walk step
// is decomposed into Gather (CSR row bounds + neighbor-slice touch),
// Sample (stage-resumable Propose/Accept decision), and Move (state
// advance, path emit, retire/respawn), each run as a tight batched loop
// over a cohort of in-flight walkers (walk.Cohort) — the software shadow
// of the paper's perfectly pipelined datapath, in the spirit of
// ThunderRW's step interleaving. With Shards > 0 it opens the sharded
// composition (see shardedBackend). Per-walker RNG streams keep output
// byte-identical to the cpu backend for the same seed at any cohort size,
// worker count, or shard count.
type pipelinedBackend struct{}

func (pipelinedBackend) Name() string { return "cpu-pipelined" }

func (pipelinedBackend) Description() string {
	return "step-interleaved software engine: cohort-batched Gather/Sample/Move pipeline"
}

// MergesBatches implements CPUFamily.
func (pipelinedBackend) MergesBatches() bool { return true }

func (pipelinedBackend) Open(g *graph.CSR, cfg Config) (Session, error) {
	return openCohort(g, cfg, "cpu-pipelined")
}

// shardedBackend is the partitioned composition of the cohort pipeline:
// the graph is split into edge-balanced shards (internal/shard), each
// shard owns a pool of cohort workers, and walkers migrate between
// shards through SPSC rings when a hop crosses a partition boundary. It
// is cpu-pipelined with the shard count defaulted rather than zero.
type shardedBackend struct{}

func (shardedBackend) Name() string { return "cpu-sharded" }

func (shardedBackend) Description() string {
	return "partitioned software engine: per-shard cohort pipelines, ring-based walker migration"
}

// MergesBatches implements CPUFamily.
func (shardedBackend) MergesBatches() bool { return true }

func (shardedBackend) Open(g *graph.CSR, cfg Config) (Session, error) {
	if cfg.Shards == 0 {
		cfg.Shards = defaultShards(g)
	}
	return openCohort(g, cfg, "cpu-sharded")
}

// defaultShards picks a shard count when the config leaves it zero: one
// shard per core up to 8 (beyond that, cut-edge traffic outgrows the
// locality win on the graphs this repository generates), clamped to the
// vertex count so tiny graphs still open.
func defaultShards(g *graph.CSR) int {
	return max(1, min(runtime.GOMAXPROCS(0), 8, g.NumVertices))
}

// openCohort opens a cohort-pipeline session: one walk.Pipeline per
// worker over contiguous batch chunks when cfg.Shards is 0, a
// shard.Engine of per-shard cohort workers otherwise.
func openCohort(g *graph.CSR, cfg Config, tag string) (Session, error) {
	if cfg.Cohort < 0 {
		return nil, fmt.Errorf("exec: %s cohort %d, want >= 0", tag, cfg.Cohort)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("exec: %s shards %d, want >= 0", tag, cfg.Shards)
	}
	workers, err := poolWorkers(tag, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.MemoryBudgetBytes != 0 && cfg.HubCacheBytes > 0 {
		return nil, fmt.Errorf("exec: %s: MemoryBudgetBytes and HubCacheBytes are mutually exclusive (the tiered hot arena subsumes the hub cache)", tag)
	}
	// The degree-aware hub arena (opt-in via HubCacheBytes) serves the
	// cohort Gather stage in both compositions; content identity with
	// the CSR keeps trajectories byte-identical.
	var lay *graph.Layout
	if cfg.HubCacheBytes > 0 {
		lay = graph.NewLayout(g, cfg.HubCacheBytes)
	}
	// The sampler is borrowed from the process-wide registry, so cohort
	// and flat sessions over the same graph all read one store. A memory
	// budget swaps both borrows for their tiered counterparts; the
	// cohort Gather stage then decodes cold rows into per-lane scratch.
	ref, ts, err := acquireWalkState(g, cfg)
	if err != nil {
		return nil, err
	}
	var tiered *graph.Tiered
	if ts != nil {
		tiered = ts.gref.Store()
	}
	var run runFunc
	if cfg.Shards > 0 {
		run, err = shardedRun(g, cfg, lay, tiered, ref.Sampler())
	} else {
		run, err = pipelinedRun(g, cfg, workers, lay, tiered, ref.Sampler())
	}
	if err != nil {
		ts.release()
		ref.Release()
		return nil, err
	}
	return newSession(tag, cfg, ref, ts, cfg.Shards > 0, run), nil
}

// pipelinedRun builds one walk.Pipeline per worker; each drives its
// contiguous chunk of the batch. Within a chunk, delivery order follows
// lane retirement, not batch order.
func pipelinedRun(g *graph.CSR, cfg Config, workers int, lay *graph.Layout, tiered *graph.Tiered, sampler sampling.Sampler) (runFunc, error) {
	cohort := cfg.Cohort
	if cohort == 0 {
		cohort = walk.DefaultCohort
	}
	pipes := make([]*walk.Pipeline, workers)
	for i := range pipes {
		p, err := walk.NewPipelineWithSampler(g, cfg.Walk, sampler, cohort)
		if err != nil {
			return nil, err
		}
		if lay != nil {
			p.SetLayout(lay)
		}
		if tiered != nil {
			p.SetTiered(tiered)
		}
		if cfg.Snapshot != nil {
			p.SetSnapshot(cfg.Snapshot)
		}
		pipes[i] = p
	}
	return func(ctx context.Context, batch Batch, emit walk.EmitFunc) error {
		hb := batch.Heartbeat
		return runChunked(ctx, len(batch.Queries), workers, func(w, lo, hi int, stopped func() bool) error {
			// Cooperative cancellation inside the cohort loop: the pipeline
			// polls the stop hook once per cohort pass (at most one hop per
			// lane between polls), so an expired deadline sheds remaining
			// steps mid-walk instead of finishing the chunk. The watchdog
			// heartbeat rides the same poll.
			hook := stopped
			if hb != nil {
				hook = func() bool {
					hb.Add(1)
					return stopped()
				}
			}
			p := pipes[w]
			p.SetStop(hook)
			defer p.SetStop(nil)
			_, err := p.Run(batch.Queries[lo:hi], func(i int, q walk.Query, path []graph.VertexID, steps int64) error {
				return emit(lo+i, q, path, steps)
			})
			if err == walk.ErrStopped {
				return stoppedErr(ctx)
			}
			return err
		})
	}, nil
}

// shardedRun partitions g into cfg.Shards shards and builds the engine
// whose per-shard workers run the cohort stepper. The engine polls ctx
// and bumps the heartbeat once per finished walk.
func shardedRun(g *graph.CSR, cfg Config, lay *graph.Layout, tiered *graph.Tiered, sampler sampling.Sampler) (runFunc, error) {
	part, err := shard.Partition(g, cfg.Shards)
	if err != nil {
		return nil, err
	}
	eng, err := shard.NewEngine(g, part, cfg.Walk, shard.EngineConfig{
		Workers:  cfg.Workers,
		Cohort:   cfg.Cohort,
		Layout:   lay,
		Tiered:   tiered,
		Sampler:  sampler,
		Snapshot: cfg.Snapshot,
	})
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, batch Batch, emit walk.EmitFunc) error {
		hb := batch.Heartbeat
		_, err := eng.Run(ctx, batch.Queries, func(i int, q walk.Query, path []graph.VertexID, steps int64) error {
			if hb != nil {
				hb.Add(1)
			}
			return emit(i, q, path, steps)
		})
		return err
	}, nil
}
