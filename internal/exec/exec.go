// Package exec is the unified execution layer: every way this repository
// can run a graph-random-walk workload — the multi-core CPU engine, the
// cycle-level RidgeWalker accelerator simulator, and the modeled baseline
// systems — is exposed behind one Backend interface and selected by a
// string key.
//
// The CPU backends (cpu, cpu-pipelined, cpu-sharded) share one Session
// implementation, cpuSession: it owns locking, fault injection, path
// copies, streaming and the borrowed sampler and tier stores, and each
// backend supplies only a run function over its engine. Backends declare
// a single optional capability, CPUFamily, which the serving layer keys
// batch merging, heartbeats, memory tiering and snapshots on.
//
// The layer has three concepts:
//
//   - A Backend is a named engine factory. Open binds it to a graph and a
//     configuration, performing all per-workload setup (sampler and alias
//     table construction, simulator instantiation, worker allocation) once.
//   - A Session is a bound, reusable executor. Run executes a query batch
//     and returns the accumulated BatchResult; Stream executes the batch
//     and delivers each finished walk through a callback instead, so
//     arbitrarily large workloads run without materializing all paths.
//   - The registry maps backend names ("cpu", "cpu-sharded", "ridgewalker",
//     "lightrw", "suetal", "fastrw", "gsampler") to Backend values; higher layers —
//     the public ridgewalker.Service, the cmd/ridgewalker CLI, and the
//     internal/bench figure drivers — select engines by name only.
//
// Sessions are safe for concurrent use: calls on one Session are
// serialized internally (the sharded engine runs them concurrently), so
// a service layer can cache and share them.
package exec

import (
	"context"
	"sync/atomic"

	"ridgewalker/internal/baselines"
	"ridgewalker/internal/core"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/hbm"
	"ridgewalker/internal/plan"
	"ridgewalker/internal/walk"
)

// Config configures a Session at Open time. Only Walk is required; every
// other field has a backend-appropriate default and fields irrelevant to
// the selected backend are ignored.
type Config struct {
	// Walk selects the GRW algorithm and its parameters (required).
	Walk walk.Config

	// Platform selects the accelerator memory system for simulator-backed
	// and analytic backends. The zero value uses each backend's published
	// platform (U55C for ridgewalker/lightrw/suetal; FastRW and gSampler
	// carry their own platform in their model configs).
	Platform hbm.Platform

	// Workers sets the CPU backends' worker-pool size. 0 means
	// runtime.GOMAXPROCS(0). Each worker owns a reused path buffer and RNG
	// stream, so the hot path allocates nothing per step.
	Workers int

	// Shards sets the cpu-sharded backend's partition count: the graph is
	// split into this many edge-balanced shards, each owning a worker pool
	// of cohort pipelines, with walkers migrating between shards on
	// boundary crossings. 0 means a backend-chosen default (GOMAXPROCS
	// capped at 8). The cpu-pipelined backend also honors it: Shards > 0
	// opens the same sharded composition. Other backends ignore it.
	Shards int

	// Cohort sets the cpu-pipelined and cpu-sharded backends' in-flight
	// walker count per worker: each worker advances that many walks
	// together through the batched Gather/Sample/Move stages, overlapping
	// CSR row fetches across walks. 0 means walk.DefaultCohort. Other
	// backends ignore it.
	Cohort int

	// HubCacheBytes, when positive, sizes the degree-aware hub arena the
	// cpu-pipelined and cpu-sharded backends build over the graph: the highest-degree
	// rows are copied, hub-first and cache-line aligned, into one compact
	// block served to the cohort Gather stage (graph.Layout), so the hot
	// rows of a power-law walk live in a cache-resident arena instead of
	// being scattered across the full CSR. The layout is content-
	// identical to the CSR, so results are unaffected. 0 (the default)
	// leaves the arena off: it is designed for multi-core runs where
	// shard workers contend for the last-level cache, and measures
	// neutral-to-slightly-negative on single-core hosts whose hub rows
	// are already LLC-resident in place (see graph.Layout). Other
	// backends ignore it.
	HubCacheBytes int64

	// MemoryBudgetBytes, when nonzero, serves the CPU backends through
	// tiered memory: the highest-degree rows — the bulk of a power-law
	// walk's traffic — stay uncompressed in a hot arena sized by the
	// budget, and the cold tail is stored delta-gap group-varint
	// compressed (graph.Tiered), decoded row-at-a-time into per-worker
	// scratch. Workloads with an O(E) alias store (weighted DeepWalk)
	// split the budget evenly between the graph and sampler tiers
	// (sampling.TieredAlias quantizes cold rows); other samplers give the
	// whole budget to the graph tier. Both stores are content-identical
	// to their flat counterparts, so trajectories are byte-identical at
	// any budget. Negative pins nothing — an all-cold store (tests,
	// worst-case footprint measurement). 0 (the default) keeps the flat
	// stores. Use graph.AutoMemoryBudget for a fit-the-hubs default.
	// Mutually exclusive with HubCacheBytes on the cohort backends (the
	// hot arena subsumes the hub cache). Simulator and analytic backends
	// ignore it.
	MemoryBudgetBytes int64

	// Snapshot, when non-nil, serves an epoch snapshot of a versioned
	// graph (graph.Versioned): rows dirtied by edge mutations since the
	// last compaction are read from the snapshot's merged overlay, clean
	// rows from the base CSR the session was opened on (which must be
	// Snapshot.Graph()). Weighted alias workloads derive their sampler
	// incrementally — only the dirty rows are rebuilt, into a spill arena
	// shared per (graph version, epoch, spec) through the sampler registry
	// — so opening against a snapshot costs O(dirty edges), not O(E).
	// Under a memory budget the graph tier gets the whole budget (tiered
	// alias rows cannot be incrementally rebuilt; draws are identical
	// either way). Only the CPU-family backends support snapshots
	// (IsCPUFamily); the simulator and analytic backends reject them.
	Snapshot *graph.Snapshot

	// DiscardPaths drops per-query paths from Run results (throughput
	// studies on large workloads). Stream never accumulates paths.
	DiscardPaths bool

	// DisableAsync and DisableDynamicSched are the RidgeWalker backend's
	// Fig. 11 ablation switches.
	DisableAsync        bool
	DisableDynamicSched bool

	// FastRW overrides the FastRW backend's model parameters
	// (default baselines.DefaultFastRW).
	FastRW *baselines.FastRWConfig

	// GPU overrides the gSampler backend's model parameters
	// (default baselines.DefaultH100).
	GPU *baselines.GPUConfig

	// Plan tunes the "auto" backend's planner (calibration micro-bench,
	// probe seed and sizes, drift thresholds). nil means stats-only
	// planning at Open — cheap enough for one-shot sessions; long-lived
	// serving layers enable plan.Options.Calibrate. Other backends
	// ignore it.
	Plan *plan.Options
}

// platform returns the configured platform or the given default.
func (c Config) platform(def hbm.Platform) hbm.Platform {
	if c.Platform.Name == "" {
		return def
	}
	return c.Platform
}

// Batch is one unit of submitted work: a set of walk queries executed
// under the Session's configuration. Query IDs key the deterministic
// per-query RNG streams; batches merged from several requests may repeat
// IDs on the CPU backend (each query's walk depends only on its own ID),
// while simulator backends require unique IDs within a batch.
type Batch struct {
	Queries []walk.Query

	// Heartbeat, when non-nil, is incremented by CPU-family sessions
	// (IsCPUFamily) at their cooperative-stop checkpoints — every 64
	// walks on the flat engine, every cohort pass on the pipeline, every
	// finished walk on the sharded engine.
	// Serving-layer watchdogs watch the counter to tell a slow batch
	// from a wedged one; sessions without the capability ignore it.
	Heartbeat *atomic.Int64
}

// WalkOutput is one finished walk delivered through Session.Stream.
type WalkOutput struct {
	// Query is the originating query's ID.
	Query uint32
	// Path is the visited-vertex sequence including the start vertex. It
	// is valid only for the duration of the callback; callers that retain
	// paths must copy them (backends recycle the buffer).
	Path []graph.VertexID
	// Steps is the number of hops taken (len(Path)-1).
	Steps int64
}

// BatchResult aggregates a Run call.
type BatchResult struct {
	// Paths holds each query's path in batch order (nil when the session
	// was opened with DiscardPaths).
	Paths [][]graph.VertexID
	// Steps is the total hop count across the batch.
	Steps int64
	// Sim carries cycle-level performance statistics for simulator-backed
	// backends (ridgewalker, lightrw, suetal); nil otherwise.
	Sim *core.Stats
	// Model carries modeled performance for baseline backends (lightrw,
	// suetal, fastrw, gsampler); nil otherwise.
	Model *baselines.Result
	// Memory carries the session's tiered-memory placement accounting;
	// nil unless the session was opened with a nonzero MemoryBudgetBytes.
	Memory *MemoryReport
	// Plan carries the resolved execution plan for sessions opened
	// through the "auto" backend (chosen backend and shape, predicted
	// vs observed steps/sec); nil for manually selected backends.
	Plan *PlanReport
}

// Session is a backend bound to one graph and configuration, reusable
// across batches. Implementations serialize Run/Stream internally, so a
// Session may be shared between goroutines.
type Session interface {
	// Run executes the batch to completion and returns the accumulated
	// result. The output is deterministic in the configured seed.
	Run(ctx context.Context, batch Batch) (*BatchResult, error)
	// Stream executes the batch, delivering each finished walk to fn as it
	// completes instead of accumulating paths — the whole-workload memory
	// footprint stays O(queries), not O(steps). Delivery order is
	// unspecified; fn is never called concurrently. A non-nil error from
	// fn stops the run and is returned.
	Stream(ctx context.Context, batch Batch, fn func(WalkOutput) error) error
	// Close releases session resources. The session must not be used
	// afterwards.
	Close() error
}

// Backend is a named execution engine.
type Backend interface {
	// Name is the registry key ("cpu", "ridgewalker", ...).
	Name() string
	// Description is a one-line summary for CLI listings.
	Description() string
	// Open binds the backend to a graph and configuration, performing all
	// per-workload setup. The graph must satisfy the walk config's
	// requirements (weights for DeepWalk, labels for MetaPath).
	Open(g *graph.CSR, cfg Config) (Session, error)
}

// SamplerSizer is an optional Session capability: sessions that borrow
// sampler state from the sampler registry report its resident byte size
// (the flat alias store for weighted DeepWalk, near-zero for parametric
// samplers). The perf suite records it as sampler_bytes.
type SamplerSizer interface {
	SamplerBytes() int64
}

// CPUFamily is the one optional Backend capability. A backend declares
// it (MergesBatches returning true) when its walks run on the software
// engines and depend only on (seed, query ID, start vertex) — cpu,
// cpu-pipelined, cpu-sharded, and auto, which always opens one of them.
// Everything the layers above key on follows from that:
//
//   - a serving layer may coalesce concurrent requests into one
//     Session.Run, since batch composition cannot change a walk;
//   - sessions bump Batch.Heartbeat at their cooperative-stop
//     checkpoints, so a watchdog may treat a flat heartbeat as wedged;
//   - Open honors Config.MemoryBudgetBytes and Config.Snapshot.
//
// Backends without it (simulators routing walks through shared
// pipelines, models requiring unique query IDs per batch) are
// dispatched per request, never watchdog-killed, and reject snapshots.
type CPUFamily interface {
	MergesBatches() bool
}

// IsCPUFamily reports whether the named backend declares the CPUFamily
// capability. Unknown names report false.
func IsCPUFamily(name string) bool {
	b, err := Lookup(name)
	if err != nil {
		return false
	}
	c, ok := b.(CPUFamily)
	return ok && c.MergesBatches()
}

// PlanReport is the resolved execution decision a planned session runs
// under, plus its realized throughput — the record that keeps the
// "auto" backend debuggable instead of a black box.
type PlanReport struct {
	// Backend, Cohort, Shards, HubCacheBytes, and MemoryBudgetBytes are
	// the chosen engine and shape.
	Backend           string
	Cohort            int
	Shards            int
	HubCacheBytes     int64
	MemoryBudgetBytes int64
	// Source and Reason record how the decision was made ("stats",
	// "calibrated", "replanned") and why.
	Source string
	Reason string
	// Revision counts drift-triggered re-plans of the class.
	Revision int
	// PredictedStepsPerSec is the calibration prediction (0 for
	// stats-only plans); ObservedStepsPerSec is the EWMA of the
	// session's own runs so far, with Runs counting them.
	PredictedStepsPerSec float64
	ObservedStepsPerSec  float64
	Runs                 int64
}

// PlanReporter is an optional Session capability: sessions opened
// through the "auto" backend report the plan they resolved to. The
// returned report is a snapshot; mutating it does not affect the
// session.
type PlanReporter interface {
	PlanReport() *PlanReport
}
