package graph

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ridgewalker/internal/fault"
)

// Tiered is a two-tier physical encoding of a CSR: the highest-degree
// rows — the hub set random walks actually hammer — stay uncompressed in
// a 64B-aligned hot arena (the same layout a Layout uses), while every
// remaining row is re-encoded as a delta-gap group-varint byte string in
// one compressed cold arena (weights ride along per row, uint8-packed
// when exact). One packed locator word per vertex — PR 4's
// offset(40)|degree(23)|arena(1) layout, with the arena bit now meaning
// "hot tier" — routes each access.
//
// The hot set is chosen by the MemoryBudgetBytes "auto" policy: rows in
// descending degree order (ties by vertex id) are pinned until the hot
// arena budget is spent. Degree skew does the rest — on RMAT graphs a few
// percent of the rows absorb most of the walk traffic, so hubs never pay
// decode and the cold tail trades a bounded row-at-a-time decode for a
// 2-4x smaller resident footprint, which is what moves the container's
// capacity ceiling from RMAT-22 to RMAT-24+.
//
// A Tiered store changes only where bytes live, never what they are:
// decoding any cold row (or reading any hot row) reproduces exactly the
// parent CSR's neighbor list and weights, so engines running over a
// Tiered store produce byte-identical trajectories to the flat CSR. The
// store is immutable after construction and safe for concurrent use;
// per-worker decode state lives in TierView.
type Tiered struct {
	g *CSR
	// loc[v] packs v's row location: offset(40) | degree(23) | hot(1).
	// Hot offsets index hotCol/hotW in entries; cold offsets index cold
	// in bytes.
	loc    []uint64
	hotCol []VertexID
	hotW   []float32 // parallel to hotCol; nil when g is unweighted
	cold   []byte
	// stride[v] is the fixed block stride of v's cold row when it uses
	// the deep-row layout (deg > strideMinDeg), else 0. A parallel array
	// rather than locator bits so the load is independent of loc[v] —
	// both index by v, so the two misses overlap in the out-of-order
	// window and point access stays two dependent loads end to end.
	stride []uint8

	// HotRows is the number of rows pinned in the hot arena.
	HotRows int
	// MaxColdDegree bounds per-worker decode scratch.
	MaxColdDegree int

	hotEntries   int64 // hot arena entries, padding included
	coldEntries  int64 // edges stored in the cold arena
	coldRows     int
	budget       int64
	flatRowBytes int64 // Col (+Weights) bytes of the flat CSR
}

// TierStats is a Tiered store's per-tier byte accounting.
type TierStats struct {
	HotRows, ColdRows int
	// HotBytes is the hot arena footprint (row padding and the parallel
	// weight arena included).
	HotBytes int64
	// ColdBytes is the compressed cold arena footprint.
	ColdBytes int64
	// LocatorBytes is the packed per-vertex locator array plus the
	// parallel per-vertex stride bytes.
	LocatorBytes int64
	// ColdFlatBytes is what the cold rows occupy in the flat CSR
	// (neighbor entries plus weights), the numerator of CompressionRatio.
	ColdFlatBytes int64
	// CompressionRatio is ColdFlatBytes / ColdBytes (0 when no cold rows).
	CompressionRatio float64
	// FlatBytes is the whole flat CSR's row storage (Col + Weights), for
	// end-to-end resident comparisons.
	FlatBytes int64
}

// NewTiered builds a tiered store over g with the given hot-tier byte
// budget. A negative budget pins nothing (every row is cold); the budget
// counts neighbor entries and, on weighted graphs, the parallel hot
// weight arena. NewTiered fails if the graph exceeds the locator packing
// limits (2^40 bytes of cold arena, 2^23 max degree) — bounds far beyond
// anything this container can hold resident.
func NewTiered(g *CSR, budgetBytes int64) (*Tiered, error) {
	if budgetBytes < 0 {
		budgetBytes = 0
	}
	if g.NumVertices > 0 && g.MaxDegree() > locDegMask {
		return nil, fmt.Errorf("graph: tiered store: max degree %d exceeds %d", g.MaxDegree(), locDegMask)
	}
	if int64(len(g.Col))*2 >= locMaxOff {
		return nil, fmt.Errorf("graph: tiered store: %d edges exceed locator range", len(g.Col))
	}
	t := &Tiered{g: g, budget: budgetBytes, flatRowBytes: int64(len(g.Col)) * 4}
	bytesPerEntry := int64(4)
	if g.Weighted() {
		bytesPerEntry = 8
		t.flatRowBytes *= 2
	}
	t.loc = make([]uint64, g.NumVertices)
	t.stride = make([]uint8, g.NumVertices)

	// Hot selection: descending degree, ties by vertex id, pinned until
	// the first row that would overflow the budget (the same prefix rule
	// as Layout's arena fit).
	order := make([]VertexID, g.NumVertices)
	for v := range order {
		order[v] = VertexID(v)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	var entries int64
	for _, v := range order {
		deg := int64(g.Degree(v))
		if deg == 0 {
			break // nothing below qualifies; zero-degree rows stay cold
		}
		padded := (deg + layoutAlign - 1) / layoutAlign * layoutAlign
		if (entries+padded)*bytesPerEntry > budgetBytes {
			break
		}
		t.loc[v] = uint64(entries)<<locOffShift | uint64(deg)<<locDegShift | locArenaBit
		entries += padded
		t.HotRows++
	}
	t.hotEntries = entries
	if t.HotRows > 0 {
		t.hotCol = make([]VertexID, entries)
		if g.Weighted() {
			t.hotW = make([]float32, entries)
		}
	}

	// Cold arena: remaining rows in vertex order, neighbor bytes first,
	// then the tagged weight row.
	for v := 0; v < g.NumVertices; v++ {
		id := VertexID(v)
		if t.loc[v]&locArenaBit != 0 {
			off := int64(t.loc[v] >> locOffShift)
			copy(t.hotCol[off:], g.Neighbors(id))
			if t.hotW != nil {
				copy(t.hotW[off:], g.NeighborWeights(id))
			}
			continue
		}
		deg := g.Degree(id)
		off := int64(len(t.cold))
		if off >= locMaxOff {
			return nil, fmt.Errorf("graph: tiered store: cold arena exceeds %d bytes", int64(locMaxOff))
		}
		t.loc[v] = uint64(off)<<locOffShift | uint64(deg)<<locDegShift
		if deg == 0 {
			continue
		}
		if deg > strideMinDeg {
			var s int
			t.cold, s = appendStridedRow(t.cold, g.Neighbors(id))
			t.stride[v] = uint8(s)
		} else {
			t.cold = appendDeltaRow(t.cold, g.Neighbors(id))
		}
		if g.Weighted() {
			t.cold = appendWeightRow(t.cold, g.NeighborWeights(id))
		}
		t.coldEntries += int64(deg)
		t.coldRows++
		if deg > t.MaxColdDegree {
			t.MaxColdDegree = deg
		}
	}
	return t, nil
}

// AutoMemoryBudget returns the hot-tier byte budget the "auto" policy
// picks for g: an eighth of the flat row storage (Col plus Weights),
// raised to the DefaultHubArenaBytes floor on large graphs (a hot tier
// smaller than the LLC arena budget buys nothing) but never past a
// quarter of the flat bytes — on graphs small enough that the floor
// would pin everything hot, tiering must still leave a cold tail or the
// locator overhead makes the "tiered" store larger than flat. Capped at
// 2 GiB. On power-law graphs an eighth of the rows' bytes, spent
// hub-first, covers the large majority of walk traffic (the same skew
// argument behind Layout's hub arena) while leaving the cold tail —
// where the compression wins live — as the bulk of the edges.
func AutoMemoryBudget(g *CSR) int64 {
	flat := int64(len(g.Col)) * 4
	if g.Weighted() {
		flat *= 2
	}
	b := flat / 8
	floor := int64(DefaultHubArenaBytes)
	if quarter := flat / 4; quarter < floor {
		floor = quarter
	}
	if b < floor {
		b = floor
	}
	if b > 2<<30 {
		b = 2 << 30
	}
	return b
}

// Graph returns the parent CSR.
func (t *Tiered) Graph() *CSR { return t.g }

// Budget returns the hot-tier byte budget the store was built with.
func (t *Tiered) Budget() int64 { return t.budget }

// Locate returns v's row location with one packed-locator load: hot rows
// give an entry offset into HotArena(), cold rows a byte offset into the
// compressed arena for DecodeRowInto.
func (t *Tiered) Locate(v VertexID) (off int64, deg int32, hot bool) {
	p := t.loc[v]
	return int64(p >> locOffShift), int32(p >> locDegShift & locDegMask), p&locArenaBit != 0
}

// IsHot reports whether v's row is served from the hot arena.
func (t *Tiered) IsHot(v VertexID) bool { return t.loc[v]&locArenaBit != 0 }

// HotArena exposes the hot neighbor arena for engines that index rows via
// Locate. The slice must not be modified.
func (t *Tiered) HotArena() []VertexID { return t.hotCol }

// HotWeights exposes the weight arena parallel to HotArena (nil on
// unweighted graphs).
func (t *Tiered) HotWeights() []float32 { return t.hotW }

// DecodeRowInto decodes v's cold row — v must locate with hot == false —
// into colBuf, growing it as needed, and returns the decoded row. When
// wantW is true (weighted graphs only) the weight row is decoded into
// wtsBuf the same way; otherwise the returned weights are nil. Reusing
// the returned buffers across calls makes steady-state decode
// allocation-free.
func (t *Tiered) DecodeRowInto(v VertexID, colBuf []VertexID, wtsBuf []float32, wantW bool) ([]VertexID, []float32) {
	// Armed-guarded injection on the cold hot path: one atomic load when
	// chaos is off. The decode API has no error return, so any injection
	// surfaces as a panic the nearest containment boundary converts.
	if fault.Armed() {
		fault.MustCheck(fault.ColdDecode)
	}
	off, deg, _ := t.Locate(v)
	d := int(deg)
	if d == 0 {
		return colBuf[:0], nil
	}
	if cap(colBuf) < d {
		colBuf = make([]VertexID, d)
	}
	var row []VertexID
	var n int
	if s := int(t.stride[v]); s != 0 {
		row, n = decodeStridedRow(t.cold[off:], d, s, colBuf[:d])
	} else {
		row, n = decodeDeltaRow(t.cold[off:], d, colBuf[:d])
	}
	if !wantW {
		return row, nil
	}
	if cap(wtsBuf) < d {
		wtsBuf = make([]float32, d)
	}
	wts, _ := decodeWeightRow(t.cold[off+int64(n):], d, wtsBuf[:d])
	return row, wts
}

// ColdEntryAt decodes the single neighbor at slot i of v's cold row —
// off as returned by Locate with hot == false — without materializing
// the row. Samplers that consume only one neighbor per hop (uniform,
// alias: the draw needs the degree, the hop needs one slot) use this to
// skip the full row decode and the scratch write-back entirely. Deep
// rows jump straight to the slot's block at the computed offset
// off + (i/codecBlockLen)*stride — one dependent memory access after the
// locator, matching a flat CSR's Col[RowPtr[v]+i] — and shallow rows
// scan from the head, so the per-hop cost of a cold row stays flat
// across the degree distribution.
func (t *Tiered) ColdEntryAt(v VertexID, off int64, i int32) VertexID {
	if s := t.stride[v]; s != 0 {
		off += int64(i/codecBlockLen) * int64(s)
		i &= codecBlockLen - 1
	}
	src := t.cold[off:]
	p := 0
	k := int32(0)
	prev := uint32(0)
	for {
		ctrl := src[p]
		p++
		for j := 0; j < 4; j++ {
			n := int(ctrl>>(2*uint(j))&3) + 1
			var g uint32
			if p+4 <= len(src) {
				g = binary.LittleEndian.Uint32(src[p:]) & groupVarintMask[n]
			} else {
				for b := 0; b < n; b++ {
					g |= uint32(src[p+b]) << (8 * uint(b))
				}
			}
			p += n
			if k&(codecBlockLen-1) == 0 {
				prev = 0 // positional restart (the shallow scan crosses them)
			}
			prev += g
			if k == i {
				return VertexID(prev)
			}
			k++
		}
	}
}

// TouchRow prefetches v's locator word and, for cold rows, the head of
// the encoded byte string (the Gather stage's software prefetch hook).
// The return value must be consumed (XOR into a sink) so the loads
// cannot be dead-code eliminated.
func (t *Tiered) TouchRow(v VertexID) uint64 {
	p := t.loc[v]
	off := p >> locOffShift
	deg := p >> locDegShift & locDegMask
	if deg == 0 {
		return p
	}
	if p&locArenaBit != 0 {
		return p ^ uint64(t.hotCol[off])
	}
	return p ^ uint64(t.cold[off]) ^ uint64(t.stride[v])
}

// Stats returns the store's per-tier byte accounting.
func (t *Tiered) Stats() TierStats {
	bytesPerEntry := int64(4)
	if t.g.Weighted() {
		bytesPerEntry = 8
	}
	s := TierStats{
		HotRows:       t.HotRows,
		ColdRows:      t.coldRows,
		HotBytes:      t.hotEntries * bytesPerEntry,
		ColdBytes:     int64(len(t.cold)),
		LocatorBytes:  int64(len(t.loc))*8 + int64(len(t.stride)),
		ColdFlatBytes: t.coldEntries * bytesPerEntry,
		FlatBytes:     t.flatRowBytes,
	}
	if s.ColdBytes > 0 {
		s.CompressionRatio = float64(s.ColdFlatBytes) / float64(s.ColdBytes)
	}
	return s
}

// MemoryFootprintBytes returns the store's resident size: hot arenas,
// compressed cold arena, and locators.
func (t *Tiered) MemoryFootprintBytes() int64 {
	s := t.Stats()
	return s.HotBytes + s.ColdBytes + s.LocatorBytes
}

// String summarizes the store for logs and CLI output.
func (t *Tiered) String() string {
	s := t.Stats()
	return fmt.Sprintf("graph.Tiered{hot=%d rows/%dKiB cold=%d rows/%dKiB ratio=%.2fx}",
		s.HotRows, s.HotBytes>>10, s.ColdRows, s.ColdBytes>>10, s.CompressionRatio)
}

// tierViewSlots is a TierView's decoded-row cache size. Second-order
// samplers re-read at most two rows per hop (Cur and Prev), and the
// cohort engines interleave a handful of lanes between re-reads; four
// slots cover both without a real cache's bookkeeping.
const tierViewSlots = 4

// TierView is a per-worker reader over a Tiered store: hot rows are
// served zero-copy from the hot arena, cold rows are decoded into
// view-owned scratch with a tiny recently-decoded cache in front, so a
// second-order sampler probing HasEdge(prev, ·) per candidate decodes
// prev's row once per hop instead of once per probe. A TierView must not
// be shared between goroutines.
type TierView struct {
	t    *Tiered
	v    [tierViewSlots]VertexID
	ok   [tierViewSlots]bool
	col  [tierViewSlots][]VertexID
	wts  [tierViewSlots][]float32
	hand int
	// pin is the slot holding the row last returned by Row or
	// RowAndWeights (-1 for none): the caller may still alias it, so a
	// HasEdge miss never evicts it.
	pin int
	// needRow / needW narrow what the view decodes to what the consumer's
	// sampler actually reads (SetAccess). With needRow false the depth-
	// first engines skip row materialization entirely — one ColdEntryAt
	// per hop instead of a full decode; with needW false weight rows are
	// never decoded.
	needRow, needW bool
}

// NewTierView returns a fresh per-worker view over t. The view defaults
// to full access (rows and weights both decoded); engines narrow it with
// SetAccess when the workload's sampler reads less.
func NewTierView(t *Tiered) *TierView {
	return &TierView{t: t, needRow: true, needW: true, pin: -1}
}

// SetAccess narrows the view to the row components the consuming sampler
// reads: needRow false means the sampler consumes only a degree and one
// drawn neighbor slot per hop (uniform and alias kinds), needW false
// that weight rows are never read. Must be set before the first access;
// narrowing an actively used view would serve cached rows decoded under
// the old setting.
func (vw *TierView) SetAccess(needRow, needW bool) {
	vw.needRow, vw.needW = needRow, needW
}

// NeedRow reports whether the view's consumer requires materialized rows
// (false selects the flat walker's slot-decode fast path).
func (vw *TierView) NeedRow() bool { return vw.needRow }

// Tiered returns the underlying store.
func (vw *TierView) Tiered() *Tiered { return vw.t }

// Graph returns the parent CSR.
func (vw *TierView) Graph() *CSR { return vw.t.g }

// Row returns v's neighbor list — content-identical to Graph().
// Neighbors(v). Hot rows alias the hot arena; cold rows alias the view's
// decode cache and stay valid until the next Row or RowAndWeights call
// (HasEdge probes in between never evict them).
func (vw *TierView) Row(v VertexID) []VertexID {
	row, _ := vw.RowAndWeights(v)
	return row
}

// RowAndWeights returns v's neighbor list and, on weighted graphs, the
// parallel weight row (nil otherwise). Aliasing as in Row.
func (vw *TierView) RowAndWeights(v VertexID) ([]VertexID, []float32) {
	row, wts, slot := vw.lookup(v)
	vw.pin = slot
	return row, wts
}

// lookup serves v's row, decoding cold misses into the round-robin
// slot after hand — skipping the pinned slot — and reports the cache
// slot it came from (-1 for hot and empty rows).
func (vw *TierView) lookup(v VertexID) ([]VertexID, []float32, int) {
	t := vw.t
	off, deg, hot := t.Locate(v)
	if hot {
		if t.hotW != nil {
			return t.hotCol[off : off+int64(deg)], t.hotW[off : off+int64(deg)], -1
		}
		return t.hotCol[off : off+int64(deg)], nil, -1
	}
	if deg == 0 {
		return nil, nil, -1
	}
	for i := 0; i < tierViewSlots; i++ {
		if vw.ok[i] && vw.v[i] == v {
			return vw.col[i], vw.wts[i], i
		}
	}
	i := vw.hand
	if i == vw.pin {
		i = (i + 1) % tierViewSlots
	}
	vw.hand = (i + 1) % tierViewSlots
	vw.col[i], vw.wts[i] = t.DecodeRowInto(v, vw.col[i], vw.wts[i], t.g.Weighted() && vw.needW)
	vw.v[i] = v
	vw.ok[i] = true
	return vw.col[i], vw.wts[i], i
}

// HasEdge reports whether the directed edge u→v is present, binary
// searching u's row through the view (so cold rows decode at most once
// per cache residency). It never evicts the row a caller obtained from
// Row or RowAndWeights.
func (vw *TierView) HasEdge(u, v VertexID) bool {
	ns, _, _ := vw.lookup(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// WorkerScratchBound is the worst-case decode scratch one TierView can
// grow to: every cache slot holding a decoded copy of the largest cold
// row, neighbors and weights both. The per-worker scratch term of the
// tier accounting, known before any worker runs.
func (t *Tiered) WorkerScratchBound() int64 {
	return int64(tierViewSlots) * int64(t.MaxColdDegree) * 8
}

// ScratchBytes reports the view's decode-cache capacity in bytes (the
// per-worker scratch term of the tier accounting).
func (vw *TierView) ScratchBytes() int64 {
	var b int64
	for i := 0; i < tierViewSlots; i++ {
		b += int64(cap(vw.col[i]))*4 + int64(cap(vw.wts[i]))*4
	}
	return b
}
