package walk

import (
	"fmt"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
	"ridgewalker/internal/sampling"
)

// DefaultCohort is the cohort width the CPU engines run when none is
// configured: big enough that a cohort's row fetches cover memory
// latency, small enough that the per-lane state stays cache-resident.
const DefaultCohort = 64

// Lane phases: where a walker stands in the step pipeline between passes.
const (
	// phaseGather: the walker needs its current vertex's row bounds before
	// it can sample.
	phaseGather = iota
	// phaseSample: row bounds are loaded; a sampling decision is in
	// progress (possibly parked mid-rejection across passes).
	phaseSample
)

// Per-pass lane fates, reset every pass.
const (
	fateNone = iota
	// fateMove: the Sample stage accepted a candidate this pass.
	fateMove
	// fateRetire: the walk terminated (length, sink, schema miss, teleport).
	fateRetire
	// fateDepart: the hop landed on a vertex the host rejected (sharded
	// engines: a vertex owned by another shard).
	fateDepart
)

// Cohort is the struct-of-arrays ring of in-flight walkers behind the
// step-interleaved execution pipeline. Each walk step is decomposed into
// three stages — Gather (fetch CSR row bounds, touch the neighbor slice so
// its cache lines are in flight), Sample (run the stage-resumable
// Propose/Accept decision), Move (advance state, extend the path, decide
// termination) — and each Step call runs every stage as a tight batched
// loop over all lanes. Row fetches for one walker therefore overlap the
// sampling and move work of the others, instead of every walker's row
// fetch being a dependent cache miss in a sequential Advance loop
// (ThunderRW's step interleaving, the software shadow of the paper's
// perfectly pipelined datapath).
//
// Hot per-walker fields live in parallel arrays; the lane only touches its
// backing State (path append) and RNG stream through pointers. All RNG
// draws come from the lane's own stream in exactly Advance's order, so
// trajectories are byte-identical to the sequential engines for the same
// seed no matter how lanes interleave.
//
// A Cohort performs no allocations after construction: lanes are
// preallocated at capacity, and path appends stay within the caller's
// preallocated buffers.
type Cohort struct {
	g       *graph.CSR
	lay     *graph.Layout // optional degree-aware row source
	sampler sampling.StagedSampler
	cfg     Config
	// scanRow marks samplers that read the whole neighbor row per
	// decision (reservoir, metapath): for those, Gather prefetches the
	// row's interior cache lines too. Single-element samplers (uniform,
	// alias, rejection) get only the row ends — touching more would burn
	// bandwidth on lines the Sample stage never reads.
	scanRow bool
	// aliasStore, set when the sampler is the flat alias store, lets
	// Gather touch the lane's locator word and alias-row boundary slots
	// alongside the CSR row locator, so the arena lines the Sample
	// stage's draw will hit are already in flight.
	aliasStore *sampling.AliasSampler
	// tieredAlias is aliasStore's counterpart for the tiered alias store
	// (kept as a second concrete field so the flat path's direct call
	// never becomes an interface dispatch).
	tieredAlias *sampling.TieredAlias

	n int // lanes in use; live lanes are always the prefix [0, n)

	// arenaCol caches the layout's hub arena backing store (or, under a
	// tiered store, the hot arena — the Move stage indexes both the same
	// way).
	arenaCol []graph.VertexID

	// Tiered-store state (SetTiered). The Gather stage decodes cold rows
	// into per-lane scratch that persists across passes — a lane parked
	// mid-rejection re-enters Sample without re-decoding — and the
	// Sample stage hands the sampler a per-lane RowView so it never
	// reads the CSR's Col (cold rows do not live there).
	tiered *graph.Tiered
	tview  *graph.TierView
	hotW   []float32 // tiered hot weight arena, parallel to arenaCol
	rowBuf [][]graph.VertexID
	wtsBuf [][]float32
	scr    []bool // lane's gathered row lives in rowBuf scratch
	mem    []sampling.RowView
	// Snapshot-overlay state (SetSnapshot). Lanes standing on a vertex
	// dirty for the serving epoch gather the snapshot's merged row into
	// ovRow/ovWts instead of any base-row source. The overlay rows are
	// snapshot-owned (never written through), deliberately separate from
	// rowBuf: DecodeRowInto writes into rowBuf in place and would corrupt
	// a snapshot row stored there.
	snap  *graph.Snapshot
	ovRow [][]graph.VertexID
	ovWts [][]float32
	ovl   []bool
	// needW marks full-row-scan samplers on weighted graphs: only those
	// read weight rows, so only they pay cold weight decode.
	needW bool
	// slotKind marks samplers that consume only the degree plus one drawn
	// neighbor slot per hop (uniform draws by index, alias draws from its
	// own store): under a tiered store their cold rows skip the full
	// decode and the Move stage reads the one slot straight from the
	// compressed arena.
	slotKind bool

	// Struct-of-arrays lane state. The gathered row is kept as scalar
	// locator fields (bounds plus which array) rather than a slice
	// header: the Gather loop's usefulness is how many independent row
	// misses it keeps in flight, and a leaner loop body keeps more
	// iterations inside the out-of-order window.
	cur, prev []graph.VertexID
	hasPrev   []bool
	step      []int32
	lo, hi    []int64 // gathered row bounds in Col or the hub arena
	arena     []bool  // gathered row lives in the hub arena
	cand      []sampling.Candidate
	phase     []uint8
	fate      []uint8
	tag       []int32
	st        []*State
	r         []*rng.Stream

	// touch sinks the Gather stage's cache-warming loads so the compiler
	// cannot discard them.
	touch uint64
}

// NewCohort builds a cohort of the given capacity. The sampler must be
// stage-resumable (every sampler built by BuildSampler is).
func NewCohort(g *graph.CSR, cfg Config, s sampling.Sampler, size int) (*Cohort, error) {
	if size < 1 {
		return nil, fmt.Errorf("walk: cohort size %d, want >= 1", size)
	}
	ss, ok := sampling.AsStaged(s)
	if !ok {
		return nil, fmt.Errorf("walk: sampler %T is not stage-resumable", s)
	}
	kind := ss.Kind()
	aliasStore, _ := s.(*sampling.AliasSampler)
	tieredAlias, _ := s.(*sampling.TieredAlias)
	return &Cohort{
		g:           g,
		sampler:     ss,
		cfg:         cfg,
		scanRow:     kind == sampling.KindReservoir || kind == sampling.KindMetaPath,
		slotKind:    kind == sampling.KindUniform || kind == sampling.KindAlias,
		aliasStore:  aliasStore,
		tieredAlias: tieredAlias,
		cur:         make([]graph.VertexID, size),
		prev:        make([]graph.VertexID, size),
		hasPrev:     make([]bool, size),
		step:        make([]int32, size),
		lo:          make([]int64, size),
		hi:          make([]int64, size),
		arena:       make([]bool, size),
		cand:        make([]sampling.Candidate, size),
		phase:       make([]uint8, size),
		fate:        make([]uint8, size),
		tag:         make([]int32, size),
		st:          make([]*State, size),
		r:           make([]*rng.Stream, size),
	}, nil
}

// SetLayout makes the Gather stage serve neighbor rows from a
// degree-aware graph.Layout instead of the raw CSR — hub rows come from
// the layout's compact cache-resident arena. The layout must be built
// over the cohort's graph; because a Layout is content-identical to its
// CSR, trajectories are unaffected. Call before the first Admit.
func (c *Cohort) SetLayout(l *graph.Layout) {
	c.lay = l
	if l != nil {
		c.arenaCol = l.Arena()
	} else {
		c.arenaCol = nil
	}
}

// SetTiered routes the Gather stage through a tiered graph store: hot
// rows come from the store's uncompressed arena exactly like a Layout's
// hub rows, cold rows are decoded row-at-a-time into per-lane scratch,
// and the Sample stage serves the sampler a staged RowView — Sample and
// Move never see which tier a row came from. Because a tiered store is
// content-identical to its CSR, trajectories are unaffected. SetTiered
// supersedes SetLayout (the layout is a rearrangement of the flat store
// the tiered store replaces). Call before the first Admit; nil restores
// direct CSR reads.
func (c *Cohort) SetTiered(t *graph.Tiered) {
	c.tiered = t
	if t == nil {
		c.tview = nil
		c.arenaCol = nil
		c.hotW = nil
		c.needW = false
		return
	}
	c.lay = nil
	c.tview = graph.NewTierView(t)
	c.arenaCol = t.HotArena()
	c.hotW = t.HotWeights()
	c.needW = c.scanRow && t.Graph().Weighted()
	if c.rowBuf == nil {
		size := len(c.cur)
		c.rowBuf = make([][]graph.VertexID, size)
		c.wtsBuf = make([][]float32, size)
		c.scr = make([]bool, size)
		c.mem = make([]sampling.RowView, size)
	}
}

// SetSnapshot makes the cohort serve an epoch snapshot of a versioned
// graph: lanes on vertices dirty for the snapshot's epoch gather the
// merged overlay row, and second-order probes route through the
// snapshot. The cohort's graph must be snap.Graph(). Composes with
// SetLayout and SetTiered (clean rows keep their fast paths). Call
// before the first Admit; nil restores base-only reads.
func (c *Cohort) SetSnapshot(snap *graph.Snapshot) {
	c.snap = snap
	if snap == nil {
		return
	}
	size := len(c.cur)
	if c.mem == nil {
		c.mem = make([]sampling.RowView, size)
	}
	if c.ovl == nil {
		c.ovRow = make([][]graph.VertexID, size)
		c.ovWts = make([][]float32, size)
		c.ovl = make([]bool, size)
	}
}

// ScratchBytes reports the decode-scratch high water across lanes and
// the per-cohort TierView cache — the "scratch" term of the tier
// accounting (0 for flat cohorts).
func (c *Cohort) ScratchBytes() int64 {
	var b int64
	for i := range c.rowBuf {
		b += int64(cap(c.rowBuf[i])) * 4
	}
	for i := range c.wtsBuf {
		b += int64(cap(c.wtsBuf[i])) * 4
	}
	if c.tview != nil {
		b += c.tview.ScratchBytes()
	}
	return b
}

// Len returns the number of occupied lanes.
func (c *Cohort) Len() int { return c.n }

// Cap returns the cohort capacity.
func (c *Cohort) Cap() int { return len(c.cur) }

// Admit installs an in-flight walk into a free lane, loading the hot
// fields from st (which may be freshly started or mid-walk, e.g. a walker
// migrating in from another shard). tag is returned through the Step
// callbacks when the walk leaves the cohort. It reports false when the
// cohort is full.
func (c *Cohort) Admit(st *State, r *rng.Stream, tag int32) bool {
	if c.n == len(c.cur) {
		return false
	}
	i := c.n
	c.n++
	c.cur[i] = st.Cur
	c.prev[i] = st.Prev
	c.hasPrev[i] = st.HasPrev
	c.step[i] = int32(st.Step)
	c.arena[i] = false
	if c.scr != nil {
		c.scr[i] = false
	}
	if c.ovl != nil {
		c.ovl[i] = false
	}
	c.cand[i] = sampling.Candidate{}
	c.phase[i] = phaseGather
	c.fate[i] = fateNone
	c.tag[i] = tag
	c.st[i] = st
	c.r[i] = r
	return true
}

// syncState writes lane i's hot fields back into its State, making the
// State self-contained again (the Path is already current: Move appends
// through the pointer).
func (c *Cohort) syncState(i int) {
	st := c.st[i]
	st.Cur = c.cur[i]
	st.Prev = c.prev[i]
	st.HasPrev = c.hasPrev[i]
	st.Step = int(c.step[i])
}

// remove frees lane i by moving the last live lane into it.
func (c *Cohort) remove(i int) {
	c.n--
	j := c.n
	if i != j {
		c.cur[i] = c.cur[j]
		c.prev[i] = c.prev[j]
		c.hasPrev[i] = c.hasPrev[j]
		c.step[i] = c.step[j]
		c.lo[i] = c.lo[j]
		c.hi[i] = c.hi[j]
		c.arena[i] = c.arena[j]
		c.cand[i] = c.cand[j]
		c.phase[i] = c.phase[j]
		c.fate[i] = c.fate[j]
		c.tag[i] = c.tag[j]
		c.st[i] = c.st[j]
		c.r[i] = c.r[j]
		if c.scr != nil {
			// Swap (not copy) the decode buffers so lane j keeps a
			// recyclable buffer — a parked lane's scratch row must follow
			// it to its new slot.
			c.rowBuf[i], c.rowBuf[j] = c.rowBuf[j], c.rowBuf[i]
			c.wtsBuf[i], c.wtsBuf[j] = c.wtsBuf[j], c.wtsBuf[i]
			c.scr[i] = c.scr[j]
		}
		if c.ovl != nil {
			// Plain copy: overlay rows alias snapshot storage, not
			// lane-owned buffers, so nothing needs swapping back.
			c.ovRow[i] = c.ovRow[j]
			c.ovWts[i] = c.ovWts[j]
			c.ovl[i] = c.ovl[j]
		}
	}
	c.st[j] = nil
	c.r[j] = nil
	if c.ovl != nil {
		c.ovRow[j] = nil
		c.ovWts[j] = nil
		c.ovl[j] = false
	}
}

// Reset drops every lane without syncing or emitting, leaving the cohort
// empty. Engines that pool cohorts across runs call it to clear lanes
// abandoned by an aborted run (stale State/RNG pointers must not leak
// into the next run).
func (c *Cohort) Reset() {
	for c.n > 0 {
		c.remove(0)
	}
}

// gatherOverlay is the Gather-stage hook for epoch snapshots (c.snap
// non-nil): when lane i's vertex is dirty for the serving epoch it
// stages the snapshot's merged row (zero-degree merged rows retire) and
// reports true — the caller skips its base-row gather. Clean vertices
// clear the lane's overlay mark and gather from the base as usual.
func (c *Cohort) gatherOverlay(i int, v graph.VertexID) bool {
	if !c.snap.Dirty(v) {
		c.ovl[i] = false
		return false
	}
	row, wts := c.snap.MergedRow(v)
	if len(row) == 0 {
		c.fate[i] = fateRetire // zero out-degree at this epoch
		return true
	}
	c.ovRow[i], c.ovWts[i] = row, wts
	c.ovl[i] = true
	c.lo[i], c.hi[i] = 0, int64(len(row))
	c.arena[i] = false
	if c.scr != nil {
		c.scr[i] = false
	}
	if c.aliasStore != nil {
		c.touch ^= c.aliasStore.TouchRow(v)
	}
	c.cand[i] = sampling.Candidate{}
	c.phase[i] = phaseSample
	return true
}

// Step runs one Gather→Sample→Move pass over every lane.
//
// depart, when non-nil, is consulted after each completed hop with the
// lane's tag and the walker's new vertex; returning true ejects the lane
// (the walk continues elsewhere — sharded engines use it for the owner
// check, recording the computed owner per tag so ejection reuses it).
// eject is then called with the lane's tag after its State has been
// synced, so the caller can hand the self-contained walker off safely.
// retire is called (also post-sync) for each walk that terminated; a
// non-nil retire error is returned after the pass completes (remaining
// callbacks still run, so the cohort stays consistent).
//
// Walkers parked mid-rejection stay in the Sample stage across passes and
// skip Gather — the stage-resumable re-entry that keeps Node2Vec's
// rejection loop from stalling the whole cohort.
func (c *Cohort) Step(
	depart func(tag int32, cur graph.VertexID) bool,
	eject func(tag int32),
	retire func(tag int32) error,
) error {
	g := c.g
	// Gather: fetch the neighbor row bounds for every lane entering a new
	// step and touch the row's ends (plus its interior cache lines for
	// full-row-scan samplers), so the row's lines are in flight before the
	// Sample stage reads them. Termination conditions that precede
	// sampling (walk length, sinks) are decided here, before any RNG
	// draw, exactly as Advance orders them. The loop is specialized on
	// the row source once per pass — the body must stay lean enough that
	// many lanes' independent misses overlap inside the out-of-order
	// window, which is the whole point of the stage.
	if c.tiered != nil {
		// Tiered variant: hot rows resolve to the uncompressed hot arena
		// (one locator load, like the Layout path); cold rows decode into
		// the lane's scratch, which persists across passes — a lane parked
		// mid-rejection re-enters Sample without re-decoding.
		for i := 0; i < c.n; i++ {
			if c.phase[i] != phaseGather {
				continue
			}
			if int(c.step[i]) >= c.cfg.WalkLength {
				c.fate[i] = fateRetire
				continue
			}
			v := c.cur[i]
			if c.snap != nil && c.gatherOverlay(i, v) {
				continue
			}
			off, deg, hot := c.tiered.Locate(v)
			if deg == 0 {
				c.fate[i] = fateRetire // zero out-degree: immediate termination
				continue
			}
			if hot {
				lo, hi := off, off+int64(deg)
				c.lo[i], c.hi[i] = lo, hi
				c.arena[i], c.scr[i] = true, false
				c.touch ^= uint64(c.arenaCol[lo]) ^ uint64(c.arenaCol[hi-1])
				if c.scanRow {
					for o := lo + 16; o < hi && o <= lo+112; o += 16 {
						c.touch ^= uint64(c.arenaCol[o])
					}
				}
			} else if c.slotKind {
				// Slot fast path: the sampler reads only the degree and the
				// Move stage one drawn slot, so the row stays encoded. lo
				// carries the cold byte offset; hi keeps Deg = hi-lo intact.
				c.lo[i], c.hi[i] = off, off+int64(deg)
				c.arena[i], c.scr[i] = false, false
				c.touch ^= c.tiered.TouchRow(v)
			} else {
				row, wts := c.tiered.DecodeRowInto(v, c.rowBuf[i], c.wtsBuf[i], c.needW)
				c.rowBuf[i] = row
				if c.needW {
					c.wtsBuf[i] = wts
				}
				c.lo[i], c.hi[i] = 0, int64(deg)
				c.arena[i], c.scr[i] = false, true
			}
			if c.aliasStore != nil {
				c.touch ^= c.aliasStore.TouchRow(v)
			}
			if c.tieredAlias != nil {
				c.touch ^= c.tieredAlias.TouchRow(v)
			}
			c.cand[i] = sampling.Candidate{}
			c.phase[i] = phaseSample
		}
	} else if c.lay == nil {
		for i := 0; i < c.n; i++ {
			if c.phase[i] != phaseGather {
				continue
			}
			if int(c.step[i]) >= c.cfg.WalkLength {
				c.fate[i] = fateRetire
				continue
			}
			v := c.cur[i]
			if c.snap != nil && c.gatherOverlay(i, v) {
				continue
			}
			lo, hi := g.RowPtr[v], g.RowPtr[v+1]
			if lo == hi {
				c.fate[i] = fateRetire // zero out-degree: immediate termination
				continue
			}
			c.lo[i], c.hi[i] = lo, hi
			c.touch ^= uint64(g.Col[lo]) ^ uint64(g.Col[hi-1])
			if c.scanRow {
				for off := lo + 16; off < hi && off <= lo+112; off += 16 {
					c.touch ^= uint64(g.Col[off])
				}
			}
			if c.aliasStore != nil {
				c.touch ^= c.aliasStore.TouchRow(v)
			}
			c.cand[i] = sampling.Candidate{}
			c.phase[i] = phaseSample
		}
	} else {
		// Layout variant: one packed-locator load replaces the two
		// row-pointer loads, and hub rows resolve to the compact arena.
		for i := 0; i < c.n; i++ {
			if c.phase[i] != phaseGather {
				continue
			}
			if int(c.step[i]) >= c.cfg.WalkLength {
				c.fate[i] = fateRetire
				continue
			}
			if c.snap != nil && c.gatherOverlay(i, c.cur[i]) {
				continue
			}
			lo, deg, inArena := c.lay.Locate(c.cur[i])
			if deg == 0 {
				c.fate[i] = fateRetire // zero out-degree: immediate termination
				continue
			}
			hi := lo + int64(deg)
			c.lo[i], c.hi[i] = lo, hi
			c.arena[i] = inArena
			base := g.Col
			if inArena {
				base = c.arenaCol
			}
			c.touch ^= uint64(base[lo]) ^ uint64(base[hi-1])
			if c.scanRow {
				for off := lo + 16; off < hi && off <= lo+112; off += 16 {
					c.touch ^= uint64(base[off])
				}
			}
			if c.aliasStore != nil {
				c.touch ^= c.aliasStore.TouchRow(c.cur[i])
			}
			c.cand[i] = sampling.Candidate{}
			c.phase[i] = phaseSample
		}
	}
	// Sample: one Propose (and, for two-phase samplers, one Accept) per
	// lane per pass. Rejected candidates park in the lane and re-enter
	// next pass instead of spinning inline.
	for i := 0; i < c.n; i++ {
		if c.fate[i] != fateNone || c.phase[i] != phaseSample {
			continue
		}
		ctx := sampling.Context{Cur: c.cur[i], Prev: c.prev[i], HasPrev: c.hasPrev[i], Deg: int32(c.hi[i] - c.lo[i]), Step: int(c.step[i])}
		if (c.tiered != nil || c.snap != nil) && !c.slotKind {
			// Stage the gathered row for the sampler: under a tiered store
			// it must not read the CSR's Col (cold rows do not live there),
			// and under a snapshot its second-order probes must route
			// through the overlay. Slot-kind samplers never read rows, so
			// their lanes skip the staging.
			m := &c.mem[i]
			switch {
			case c.ovl != nil && c.ovl[i]:
				m.Row, m.Wts = c.ovRow[i], c.ovWts[i]
			case c.scr != nil && c.scr[i]:
				m.Row, m.Wts = c.rowBuf[i], c.wtsBuf[i]
			case c.tiered != nil:
				m.Row = c.arenaCol[c.lo[i]:c.hi[i]]
				m.Wts = nil
				if c.needW {
					m.Wts = c.hotW[c.lo[i]:c.hi[i]]
				}
			default:
				// Flat or layout store, clean lane under a snapshot: stage
				// the base row by vertex (lo/hi may be arena offsets).
				m.Row = g.Neighbors(c.cur[i])
				m.Wts = nil
				if g.Weighted() {
					m.Wts = g.NeighborWeights(c.cur[i])
				}
			}
			m.Tier = c.tview
			m.Snap = c.snap
			ctx.Mem = m
		}
		cand := c.sampler.Propose(g, ctx, c.cand[i], c.r[i])
		c.cand[i] = cand
		if cand.Final || c.sampler.Accept(g, ctx, cand, c.r[i]) {
			if cand.Index < 0 {
				c.fate[i] = fateRetire // no selectable neighbor
			} else {
				c.fate[i] = fateMove
			}
		}
	}
	// Move: apply accepted hops, extend paths, and decide continuation —
	// the PPR teleport draw comes from the lane's stream immediately after
	// its accept draw, preserving Advance's per-walker order.
	for i := 0; i < c.n; i++ {
		if c.fate[i] != fateMove {
			continue
		}
		var next graph.VertexID
		if c.ovl != nil && c.ovl[i] {
			// Overlay lane: the merged row replaced every base source
			// (checked first — its arena/scr marks are cleared, so the
			// tiered branch below would misroute it to the cold arena).
			next = c.ovRow[i][c.cand[i].Index]
		} else if c.tiered != nil && !c.arena[i] && !c.scr[i] {
			// Slot-kind cold lane: the row never decoded; lo is the cold
			// byte offset (Gather's fast path).
			next = c.tiered.ColdEntryAt(c.cur[i], c.lo[i], int32(c.cand[i].Index))
		} else {
			base := g.Col
			if c.arena[i] {
				base = c.arenaCol
			}
			if c.scr != nil && c.scr[i] {
				base = c.rowBuf[i] // decoded cold row; lo is 0
			}
			next = base[c.lo[i]+int64(c.cand[i].Index)]
		}
		c.prev[i], c.hasPrev[i] = c.cur[i], true
		c.cur[i] = next
		st := c.st[i]
		st.Path = append(st.Path, next)
		c.step[i]++
		if c.cfg.Algorithm == PPR && c.r[i].Float64() < c.cfg.Alpha {
			c.fate[i] = fateRetire // teleport ends the query
			continue
		}
		if int(c.step[i]) >= c.cfg.WalkLength {
			c.fate[i] = fateRetire
			continue
		}
		if depart != nil && depart(c.tag[i], next) {
			c.fate[i] = fateDepart
			continue
		}
		c.fate[i] = fateNone
		c.phase[i] = phaseGather
	}
	// Sweep: sync departing/finished lanes back into their States, hand
	// them to the caller, and compact the ring.
	var err error
	for i := 0; i < c.n; {
		switch c.fate[i] {
		case fateRetire:
			c.syncState(i)
			t := c.tag[i]
			c.remove(i)
			if e := retire(t); e != nil && err == nil {
				err = e
			}
		case fateDepart:
			c.syncState(i)
			t := c.tag[i]
			c.remove(i)
			eject(t)
		default:
			i++
		}
	}
	return err
}
