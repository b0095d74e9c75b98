package rtree

import (
	"math"
	"sync"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
)

// Packed is the immutable, cache-packed form of an R-tree that every
// query traverses: every node lives in one flat arena indexed by int32
// node ids, child links are indices instead of pointers, and entry
// geometry is stored in structure-of-arrays form — per-axis coordinate
// slices — so the per-node candidate loops of the traversals become
// streaming passes over contiguous float64 arrays (see the fused kernels
// in internal/geom).
//
// Two separate slot spaces hold the entries, both in the tree's
// depth-first preorder:
//
//   - routing slots (internal-node entries): per-axis rectangle corners
//     rlo/rhi plus the child node id;
//   - leaf slots (data entries): per-axis point coordinates pc, the
//     point-major geom.Point view emitted in results, and the caller's
//     id.
//
// Node i owns the contiguous slot range [start[i], end[i]) of whichever
// space its level selects. Page ids are preserved from the builder tree
// and every traversal charges the arena's accountant, which reproduces
// the paper's node-access metric.
//
// A Packed holds no reference to the Tree it was packed from: the
// builder can be dropped (or keep mutating) once Pack returns.
type Packed struct {
	cfg    Config // effective builder configuration (dimension, capacities, pages, accountant)
	pages  int64  // page ids the builder allocated, starting at cfg.FirstPage
	size   int
	height int

	root int32

	// Per-node arrays, indexed by node id (depth-first preorder).
	level []int32
	page  []pagestore.PageID
	start []int32
	end   []int32

	// Routing-slot arrays (internal-node entries).
	child    []int32
	rlo, rhi [][]float64 // rlo[axis][slot]

	// Leaf-slot arrays (data entries).
	pc  [][]float64 // pc[axis][slot]
	pts []geom.Point
	ids []int64

	// prep, when non-nil, holds the deferred verification and
	// materialisation of a borrowed arena (PackedFromSnapshotBorrowed);
	// Prepare must succeed before the arena is traversed. nil for arenas
	// built by Pack or copied by PackedFromSnapshot, which are complete
	// at construction.
	prep *packedPrep

	// mbr is the root MBR (set at construction, or by Prepare for a
	// borrowed arena).
	mbr geom.Rect
}

// packedPrep defers a borrowed arena's expensive open work — checksum
// verification, structural validation, point materialisation — to first
// use, exactly once, safely under concurrency.
type packedPrep struct {
	once sync.Once
	fn   func() error
	err  error
}

// Prepare runs the deferred verification and materialisation of a
// borrowed arena: section checksums over the backing buffer, structural
// validation of the node graph, the point-major coordinate view and the
// root MBR. It is idempotent, safe for concurrent callers (the first
// outcome is cached) and a no-op on arenas that were complete at
// construction. Every traversal requires a prior successful Prepare;
// the public layer calls it on each query entry, so a corrupt mapping
// surfaces as this error on first use, never as a fault mid-traversal.
func (p *Packed) Prepare() error {
	if p.prep == nil {
		return nil
	}
	p.prep.once.Do(func() { p.prep.err = p.prep.fn() })
	return p.prep.err
}

// Bounds returns the MBR of the indexed points; ok is false when the
// arena is empty (or a borrowed arena fails Prepare).
func (p *Packed) Bounds() (geom.Rect, bool) {
	if p.size == 0 || p.Prepare() != nil {
		return geom.Rect{}, false
	}
	return p.mbr, true
}

// Pack builds the packed arena of the tree's current state. The arena
// copies everything it needs, so later mutations of the tree do not
// affect it. Like every read operation it may run concurrently with
// other reads of the tree, but not with Insert or Delete.
func (t *Tree) Pack() *Packed {
	// First pass: count nodes and slots so every arena is allocated once.
	var nodes, rslots, lslots int
	var count func(n *node)
	count = func(n *node) {
		nodes++
		if n.level == 0 {
			lslots += len(n.entries)
			return
		}
		rslots += len(n.entries)
		for _, e := range n.entries {
			count(e.child)
		}
	}
	count(t.root)

	dim := t.cfg.Dim
	p := &Packed{
		cfg: t.cfg, pages: t.Pages(), size: t.size, height: t.height,
		level: make([]int32, 0, nodes),
		page:  make([]pagestore.PageID, 0, nodes),
		start: make([]int32, 0, nodes),
		end:   make([]int32, 0, nodes),
		child: make([]int32, rslots),
		rlo:   make([][]float64, dim),
		rhi:   make([][]float64, dim),
		pc:    make([][]float64, dim),
		pts:   make([]geom.Point, 0, lslots),
		ids:   make([]int64, 0, lslots),
	}
	for a := 0; a < dim; a++ {
		p.rlo[a] = make([]float64, rslots)
		p.rhi[a] = make([]float64, rslots)
		p.pc[a] = make([]float64, 0, lslots)
	}
	// Point-major copies of the leaf points live in one slab.
	slab := make([]float64, 0, dim*lslots)

	// Second pass: depth-first preorder fill. A node's slot range is
	// claimed before its children are visited, and each routing slot's
	// child id is patched in as the recursion returns.
	var nextR, nextL int32
	var fill func(n *node) int32
	fill = func(n *node) int32 {
		id := int32(len(p.level))
		p.level = append(p.level, int32(n.level))
		p.page = append(p.page, n.page)
		if n.level == 0 {
			p.start = append(p.start, nextL)
			for _, e := range n.entries {
				for a := 0; a < dim; a++ {
					p.pc[a] = append(p.pc[a], e.Point[a])
				}
				s := len(slab)
				slab = append(slab, e.Point...)
				p.pts = append(p.pts, geom.Point(slab[s:s+dim:s+dim]))
				p.ids = append(p.ids, e.ID)
			}
			nextL += int32(len(n.entries))
			p.end = append(p.end, nextL)
			return id
		}
		s := nextR
		nextR += int32(len(n.entries))
		p.start = append(p.start, s)
		p.end = append(p.end, nextR)
		for i, e := range n.entries {
			for a := 0; a < dim; a++ {
				p.rlo[a][s+int32(i)] = e.Rect.Lo[a]
				p.rhi[a][s+int32(i)] = e.Rect.Hi[a]
			}
		}
		for i, e := range n.entries {
			p.child[s+int32(i)] = fill(e.child)
		}
		return id
	}
	p.root = fill(t.root)
	p.mbr = p.rootMBR()
	return p
}

// Len returns the number of indexed points.
func (p *Packed) Len() int { return p.size }

// Dim returns the arena's dimensionality.
func (p *Packed) Dim() int { return p.cfg.Dim }

// Height returns the number of levels (1 when the root is a leaf).
func (p *Packed) Height() int { return p.height }

// Nodes returns the number of nodes in the arena.
func (p *Packed) Nodes() int { return len(p.level) }

// Config returns the effective configuration of the tree the arena was
// packed from (for snapshot-loaded arenas, the writer's structural
// parameters). The overlay and compaction layers use it to bulk-load
// replacements with identical geometry.
func (p *Packed) Config() Config { return p.cfg }

// Accountant returns the shared accountant charged by all traversals.
func (p *Packed) Accountant() *pagestore.Accountant { return p.cfg.Accountant }

// Root returns the root node id without charging an access (use
// Reader.Root on query paths).
func (p *Packed) Root() int32 { return p.root }

// IsLeaf reports whether node n is at leaf level.
func (p *Packed) IsLeaf(n int32) bool { return p.level[n] == 0 }

// NodeRange returns node n's slot range [s, e) — routing slots for
// internal nodes, leaf slots for leaves.
func (p *Packed) NodeRange(n int32) (s, e int32) { return p.start[n], p.end[n] }

// ChildOf returns the child node id of routing slot s without charging
// an access.
func (p *Packed) ChildOf(s int32) int32 { return p.child[s] }

// RectSoA returns the per-axis corner arrays of the routing slots.
func (p *Packed) RectSoA() (lo, hi [][]float64) { return p.rlo, p.rhi }

// PointSoA returns the per-axis coordinate arrays of the leaf slots.
func (p *Packed) PointSoA() [][]float64 { return p.pc }

// LeafPoint returns the data point of leaf slot s. The returned slice is
// the arena's own storage (never modify it).
func (p *Packed) LeafPoint(s int32) geom.Point { return p.pts[s] }

// LeafID returns the caller-supplied id of leaf slot s.
func (p *Packed) LeafID(s int32) int64 { return p.ids[s] }

// NumLeafSlots returns the total number of leaf slots (== Len()).
func (p *Packed) NumLeafSlots() int { return len(p.ids) }

// RectInto copies routing slot s's rectangle into dst's corner slices,
// growing them only when their capacity is too small — the allocation-free
// bridge for the few per-node bounds (heuristic 3, F-MBM leaf ordering)
// that operate on one rectangle rather than a range.
func (p *Packed) RectInto(s int32, dst *geom.Rect) {
	dim := p.cfg.Dim
	if cap(dst.Lo) < dim {
		dst.Lo = make(geom.Point, dim)
	}
	if cap(dst.Hi) < dim {
		dst.Hi = make(geom.Point, dim)
	}
	dst.Lo, dst.Hi = dst.Lo[:dim], dst.Hi[:dim]
	for a := 0; a < dim; a++ {
		dst.Lo[a] = p.rlo[a][s]
		dst.Hi[a] = p.rhi[a][s]
	}
}

// RectIntersects reports whether routing slot s's rectangle intersects r
// (boundaries inclusive, as geom.Rect.Intersects).
func (p *Packed) RectIntersects(s int32, r geom.Rect) bool {
	for a := 0; a < p.cfg.Dim; a++ {
		if r.Hi[a] < p.rlo[a][s] || p.rhi[a][s] < r.Lo[a] {
			return false
		}
	}
	return true
}

// PackedRef encodes one packed entry on traversal data structures: leaf
// slot s as s (non-negative), routing slot s as ^s (negative). A single
// int32 replaces a copied entry in candidate lists and heaps.
type PackedRef = int32

// LeafRef and NodeRef build refs; RefSlot decodes either kind.
func LeafRef(s int32) PackedRef { return s }

// NodeRef encodes routing slot s.
func NodeRef(s int32) PackedRef { return ^s }

// RefSlot returns the slot index and whether the ref is a leaf slot.
func RefSlot(r PackedRef) (s int32, leaf bool) {
	if r >= 0 {
		return r, true
	}
	return ^r, false
}

// Reader is a per-query execution context: a read-only view of a packed
// arena whose node accesses are charged to one query's CostTracker (may
// be nil: aggregate-only accounting) as well as the arena's shared
// Accountant. Create one Reader per query; a Reader itself is a cheap
// value but must not be shared between goroutines, because the tracker
// it carries is unsynchronised by design.
type Reader struct {
	p  *Packed
	tk *pagestore.CostTracker
}

// Reader returns an execution context over the arena, charging tk (nil
// for aggregate-only accounting).
func (p *Packed) Reader(tk *pagestore.CostTracker) Reader {
	return Reader{p: p, tk: tk}
}

// Packed returns the arena this reader traverses.
func (r Reader) Packed() *Packed { return r.p }

// Root returns the root node id, charging one node access.
func (r Reader) Root() int32 {
	r.p.cfg.Accountant.Access(r.p.page[r.p.root], r.tk)
	return r.p.root
}

// Child resolves routing slot s to its child node id, charging one node
// access.
func (r Reader) Child(s int32) int32 {
	c := r.p.child[s]
	r.p.cfg.Accountant.Access(r.p.page[c], r.tk)
	return c
}

// growFloat64 returns dst with length n (contents undefined), reallocating
// only when capacity is short — the scratch-buffer growth helper of the
// traversals.
func growFloat64(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// All invokes fn for every indexed point in depth-first order — a pure
// streaming pass over the flat leaf arrays, without charging node
// accesses (a bookkeeping scan, not a simulated disk traversal).
func (p *Packed) All(fn func(pt geom.Point, id int64) bool) {
	if p.Prepare() != nil {
		return // unverifiable borrowed arena; opens surfaced the error
	}
	for i := range p.pts {
		if !fn(p.pts[i], p.ids[i]) {
			return
		}
	}
}

// rootMBR computes the arena root's bounding rectangle (the validated
// arena makes every slot range in bounds).
func (p *Packed) rootMBR() geom.Rect {
	dim := p.cfg.Dim
	lo := make(geom.Point, dim)
	hi := make(geom.Point, dim)
	s, e := p.start[p.root], p.end[p.root]
	if s >= e {
		return geom.Rect{Lo: lo, Hi: hi}
	}
	clo, chi := p.rlo, p.rhi
	if p.level[p.root] == 0 {
		clo, chi = p.pc, p.pc
	}
	for a := 0; a < dim; a++ {
		lo[a], hi[a] = clo[a][s], chi[a][s]
		for i := s + 1; i < e; i++ {
			lo[a] = math.Min(lo[a], clo[a][i])
			hi[a] = math.Max(hi[a], chi[a][i])
		}
	}
	return geom.Rect{Lo: lo, Hi: hi}
}
