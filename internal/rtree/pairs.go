package rtree

import (
	"fmt"
	"math"

	"gnn/internal/geom"
	"gnn/internal/pq"
)

// Pair is a pair of data points, one from each arena, with their distance.
type Pair struct {
	P, Q Neighbor
	Dist float64
}

// pairItem is a heap element of the incremental closest-pair search. Each
// side is a ref into its arena: a resolved leaf slot or a routing slot.
type pairItem struct {
	p, q PackedRef
}

// PairIterator enumerates point pairs (p, q), p from the first arena and
// q from the second, in ascending distance order — the incremental
// closest-pair algorithm of [HS98] used as the engine of GCP (§4.1).
//
// The iterator maintains a heap of entry pairs keyed by the squared
// mindist of their rectangles: since mindist lower-bounds every concrete
// pair beneath an entry pair and squaring preserves order, popping in heap
// order yields pairs in ascending distance while no heap key pays a Sqrt.
// Node accesses are charged to each side's execution context (each
// arena's shared accountant, plus whatever tracker the contexts carry).
//
// Iterators are drawn from a pool; Close recycles the heap (GCP closes its
// iterator on every path). Forgetting to Close costs only the reuse.
type PairIterator struct {
	rp, rq Reader
	heap   pq.Heap[pairItem]
	closed bool
	// heapMax tracks the high-water mark of the heap, reported because the
	// paper discusses GCP's "large heap requirements" (§4.1).
	heapMax int
	// Scratch: the ref lists of one expansion and the rectangles of the
	// pair being keyed.
	pbuf, qbuf []PackedRef
	rp1, rq1   geom.Rect
}

var pairIterPool = pq.NewPool(func() *PairIterator { return &PairIterator{} })

// NewClosestPairIterator starts an incremental closest-pair scan between
// the arenas behind two per-query execution contexts. The contexts may
// share one CostTracker, which then accumulates the combined NA of both
// arenas.
func NewClosestPairIterator(rp, rq Reader) (*PairIterator, error) {
	if rp.p.Dim() != rq.p.Dim() {
		return nil, fmt.Errorf("rtree: dimension mismatch %d vs %d", rp.p.Dim(), rq.p.Dim())
	}
	it := pairIterPool.Get()
	it.rp, it.rq, it.closed, it.heapMax = rp, rq, false, 0
	it.heap.Reset()
	if rp.p.size > 0 && rq.p.size > 0 {
		np, nq := rp.Root(), rq.Root()
		it.pushCross(slotRefs(&it.pbuf, rp.p, np), slotRefs(&it.qbuf, rq.p, nq))
	}
	return it, nil
}

// slotRefs fills *buf with the refs of node n's slots.
func slotRefs(buf *[]PackedRef, p *Packed, n int32) []PackedRef {
	refs := (*buf)[:0]
	s, e := p.NodeRange(n)
	leaf := p.IsLeaf(n)
	for i := s; i < e; i++ {
		r := LeafRef(i)
		if !leaf {
			r = NodeRef(i)
		}
		refs = append(refs, r)
	}
	*buf = refs
	return refs
}

// one fills *buf with the single ref r.
func one(buf *[]PackedRef, r PackedRef) []PackedRef {
	*buf = append((*buf)[:0], r)
	return *buf
}

// pushCross enqueues the cross product of two ref sets, P-major.
func (it *PairIterator) pushCross(ps, qs []PackedRef) {
	for _, p := range ps {
		for _, q := range qs {
			it.heap.Push(pairItem{p, q}, it.pairDistSq(p, q))
		}
	}
	if it.heap.Len() > it.heapMax {
		it.heapMax = it.heap.Len()
	}
}

// pairDistSq is the squared mindist between two refs' geometries.
func (it *PairIterator) pairDistSq(pr, qr PackedRef) float64 {
	pp, qp := it.rp.p, it.rq.p
	ps, pLeaf := RefSlot(pr)
	qs, qLeaf := RefSlot(qr)
	switch {
	case pLeaf && qLeaf:
		return geom.DistSq(pp.pts[ps], qp.pts[qs])
	case pLeaf:
		qp.RectInto(qs, &it.rq1)
		return geom.MinDistSqPointRect(pp.pts[ps], it.rq1)
	case qLeaf:
		pp.RectInto(ps, &it.rp1)
		return geom.MinDistSqPointRect(qp.pts[qs], it.rp1)
	default:
		pp.RectInto(ps, &it.rp1)
		qp.RectInto(qs, &it.rq1)
		return geom.MinDistSqRectRect(it.rp1, it.rq1)
	}
}

// Next returns the next closest pair; ok is false when all pairs have been
// reported or the iterator is closed.
func (it *PairIterator) Next() (Pair, bool) {
	if it.closed {
		return Pair{}, false
	}
	pp, qp := it.rp.p, it.rq.p
	for {
		item, ok := it.heap.Pop()
		if !ok {
			return Pair{}, false
		}
		pr, qr := item.Value.p, item.Value.q
		ps, pLeaf := RefSlot(pr)
		qs, qLeaf := RefSlot(qr)
		if pLeaf && qLeaf {
			d := math.Sqrt(item.Priority)
			return Pair{
				P:    Neighbor{Point: pp.pts[ps], ID: pp.ids[ps], Dist: d},
				Q:    Neighbor{Point: qp.pts[qs], ID: qp.ids[qs], Dist: d},
				Dist: d,
			}, true
		}
		// Expand the unresolved side with the larger rectangle (both when
		// only one is unresolved); this balanced policy keeps the heap
		// smaller than always expanding a fixed side.
		expandP := !pLeaf
		if !pLeaf && !qLeaf {
			pp.RectInto(ps, &it.rp1)
			qp.RectInto(qs, &it.rq1)
			expandP = it.rp1.Area() >= it.rq1.Area()
		}
		if expandP {
			it.pushCross(slotRefs(&it.pbuf, pp, it.rp.Child(ps)), one(&it.qbuf, qr))
		} else {
			it.pushCross(one(&it.pbuf, pr), slotRefs(&it.qbuf, qp, it.rq.Child(qs)))
		}
	}
}

// PeekDist returns a lower bound on the distance of the next pair; ok is
// false when exhausted or closed.
func (it *PairIterator) PeekDist() (float64, bool) {
	if it.closed {
		return 0, false
	}
	d, ok := it.heap.MinPriority()
	if !ok {
		return 0, false
	}
	return math.Sqrt(d), true
}

// HeapLen returns the current number of queued entry pairs.
func (it *PairIterator) HeapLen() int { return it.heap.Len() }

// HeapMax returns the high-water mark of the pair heap.
func (it *PairIterator) HeapMax() int { return it.heapMax }

// Close releases the iterator's heap to the pool. Call it at most once,
// and do not use the iterator afterwards — see NNIterator.Close for the
// stale-handle hazard the closed flag cannot cover after a re-lease.
func (it *PairIterator) Close() {
	if it == nil || it.closed {
		return
	}
	it.closed = true
	it.rp, it.rq = Reader{}, Reader{}
	it.heap.Reset()
	pairIterPool.Put(it)
}
