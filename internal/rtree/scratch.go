package rtree

import "gnn/internal/pq"

// This file holds the pooled per-query scratch of depth-first traversals.
// Query kernels are (near-)zero-allocation in steady state: every slice
// and heap a traversal needs is drawn from a sync.Pool-backed arena on
// entry and released on completion, and per-node candidate ordering uses
// an inlined insertion sort over a reusable buffer instead of a freshly
// allocated slice and a `sort.Slice` closure. The GNN kernels in
// internal/core share these types through their own pooled ExecContext.

// Cand pairs a PackedRef (leaf slot or ^routing slot) with its traversal
// sort key D, plus a secondary tie-break key D2. Keys may be squared
// distances (squaring is monotone, so ordering is unaffected and no heap
// key pays a Sqrt); kernels whose primary key has a large tie mass (MBM's
// heuristic-2 key is zero for every entry overlapping the query MBR)
// order ties most-promising-first via D2, while the others leave D2 zero.
type Cand struct {
	Ref PackedRef
	D   float64
	D2  float64
}

// SortCands orders candidates by ascending (D, D2). Nodes hold at most
// MaxEntries (50 in the paper's setup) entries, where a branch-light
// insertion sort beats the reflection/closure machinery of the generic
// sorts and allocates nothing.
func SortCands(c []Cand) {
	for i := 1; i < len(c); i++ {
		x := c[i]
		j := i - 1
		for j >= 0 && (c[j].D > x.D || (c[j].D == x.D && c[j].D2 > x.D2)) {
			c[j+1] = c[j]
			j--
		}
		c[j+1] = x
	}
}

// CandStack hands out one candidate buffer per recursion depth: the
// parent is still iterating its sorted buffer while the child sorts its
// own, so depth-first traversals need a buffer per level, not one per
// query. Tree height is logarithmic (≤ 5 for the paper's datasets), so
// the stack stays tiny and is reused across queries via the scratch
// pools.
type CandStack struct {
	levels [][]Cand
}

// Level returns the (emptied) buffer of the given recursion depth,
// growing the stack on first descent.
func (s *CandStack) Level(depth int) *[]Cand {
	for len(s.levels) <= depth {
		s.levels = append(s.levels, nil)
	}
	s.levels[depth] = s.levels[depth][:0]
	return &s.levels[depth]
}

// Reset rewinds all per-depth buffers. Cands hold no pointers, so there
// is nothing to zero.
func (s *CandStack) Reset() {
	for i := range s.levels {
		s.levels[i] = s.levels[i][:0]
	}
}

// nnScratch is the per-query scratch of NearestDF: the per-depth
// candidate buffers, the fused-kernel distance buffer and the bounded
// result heap.
type nnScratch struct {
	cands CandStack
	dbuf  []float64
	best  pq.BoundedMax[Neighbor]
}

var nnScratchPool = pq.NewPool(func() *nnScratch { return &nnScratch{} })

// release resets the scratch and returns it to the pool.
func (s *nnScratch) release() {
	s.cands.Reset()
	if s.best.Len() > 0 {
		s.best.Reset(1) // zeroes retained payloads; next user re-Resets with its own k
	}
	nnScratchPool.Put(s)
}
