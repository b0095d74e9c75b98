package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"gnn/internal/geom"
	"gnn/internal/pq"
	"gnn/internal/rtree"
)

// ExecContext is the pooled per-query scratch arena of the GNN kernels:
// every slice and heap a query needs in steady state — the result
// accumulator, per-depth candidate buffers for depth-first traversals,
// best-first entry heaps, MQM's threshold and iterator slices, F-MBM's
// leaf buffers and the query-MBR corners — lives here and is reused across
// queries, so a warm kernel allocates (almost) nothing.
//
// Acquire a context with AcquireExec and return it with Release, or set
// Options.Exec to reuse one context across many sequential queries (the
// batch engine holds one per worker). A context must never be shared by
// concurrent queries: like Options.Cost, it is unsynchronised by design.
type ExecContext struct {
	best  kbest
	qmbr  geom.Rect
	qcent geom.Point

	// Traversal scratch: per-depth ref candidates, the int32 best-first
	// heap, the fused-kernel distance buffers and a spare rectangle for the
	// per-node bounds that need one (heuristic 3, F-MBM leaf ordering).
	cands rtree.CandStack
	heap  pq.Heap[rtree.PackedRef]
	dbuf  []float64
	dbuf2 []float64
	prect geom.Rect

	// SoA copy of the query group (per-axis columns) for the exact-
	// distance and heuristic-3 inner loops.
	gsoa  [][]float64
	gflat []float64

	// Dedicated aggregate-MAX scratch: the minimum-enclosing-ball solver's
	// buffers and the derived pruning context (see maxmeb.go).
	mebs geom.MEBScratch
	meb  mebCtx

	// Conversion buffer of the public layer (query []Point → []geom.Point).
	qsbuf []geom.Point

	// MQM per-stream state.
	thresholds []float64
	iters      []*rtree.NNIterator

	// F-MBM leaf-processing state.
	order     []int
	keep      []int
	blockDist []float64
	lbs       []float64
	fcands    []fmbmCand
}

var execPool = pq.NewPool(func() *ExecContext { return &ExecContext{} })

// AcquireExec draws an execution context from the pool. Callers must
// Release it when the query completes.
func AcquireExec() *ExecContext { return execPool.Get() }

// Release zeroes everything the context retained (so pooled buffers don't
// pin a finished query's points or subtrees) and returns it to the pool.
// The context must not be used afterwards.
func (ec *ExecContext) Release() {
	if ec == nil {
		return
	}
	ec.best.reset(0)
	ec.cands.Reset()
	ec.heap.Reset()
	clear(ec.qsbuf[:cap(ec.qsbuf)])
	clear(ec.iters[:cap(ec.iters)])
	ec.fcands = ec.fcands[:0]
	ec.lbs = ec.lbs[:0]
	ec.mebs.Reset()
	ec.meb = mebCtx{}
	execPool.Put(ec)
}

// RunPooled distributes n independent jobs over a pool of the requested
// number of workers (<= 0 means GOMAXPROCS, capped at n), giving each
// worker one pooled execution context for its whole share so every job
// after a worker's first reuses warm scratch. It is the worker-pool
// primitive behind the public batch engine and the sharded scatter.
func RunPooled(n, workers int, job func(i int, ec *ExecContext)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		ec := AcquireExec()
		defer ec.Release()
		for i := 0; i < n; i++ {
			job(i, ec)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			ec := AcquireExec()
			defer ec.Release()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i, ec)
			}
		}()
	}
	wg.Wait()
}

// exec returns the options' context, drawing a pooled one when the caller
// did not supply any. done reports whether the callee owns it and must
// Release it on completion.
func (o Options) exec() (ec *ExecContext, owned bool) {
	if o.Exec != nil {
		return o.Exec, false
	}
	return AcquireExec(), true
}

// releaseIfOwned releases ec when owned; pair it with exec() via defer.
func releaseIfOwned(ec *ExecContext, owned bool) {
	if owned {
		ec.Release()
	}
}

// Points returns a reusable []geom.Point of length n (contents undefined),
// used by the public layer to convert caller queries without allocating.
func (ec *ExecContext) Points(n int) []geom.Point {
	if cap(ec.qsbuf) < n {
		ec.qsbuf = make([]geom.Point, n)
	}
	ec.qsbuf = ec.qsbuf[:n]
	return ec.qsbuf
}

// groupSoA lays the query group out as per-axis columns into the
// context's reusable backing (see the SoA group fast path in weighted.go).
func (ec *ExecContext) groupSoA(qs []geom.Point) [][]float64 {
	ec.gsoa, ec.gflat = groupSoAInto(ec.gsoa, ec.gflat, qs)
	return ec.gsoa
}

// groupSoAInto fills (and grows) the given column/backing buffers with
// the group's coordinates, column a holding axis a of every query point.
func groupSoAInto(dst [][]float64, flat []float64, qs []geom.Point) ([][]float64, []float64) {
	dim, n := len(qs[0]), len(qs)
	if cap(flat) < dim*n {
		flat = make([]float64, dim*n)
	}
	flat = flat[:dim*n]
	if cap(dst) < dim {
		dst = make([][]float64, dim)
	}
	dst = dst[:dim]
	for a := 0; a < dim; a++ {
		col := flat[a*n : (a+1)*n]
		for j, q := range qs {
			col[j] = q[a]
		}
		dst[a] = col
	}
	return dst, flat
}

// kbestFor returns the context's result accumulator, reset for k results,
// with an optional candidate veto (nil rejects nothing).
func (ec *ExecContext) kbestFor(k int, rej RejectFunc) *kbest {
	ec.best.reset(k)
	ec.best.reject = rej
	return &ec.best
}

// kbestShared is kbestFor coupled to a cross-shard pruning bound (nil for
// a standalone query — the common case — which behaves exactly as before).
func (ec *ExecContext) kbestShared(k int, s *SharedBound, rej RejectFunc) *kbest {
	ec.best.reset(k)
	ec.best.shared = s
	ec.best.reject = rej
	return &ec.best
}

// mebFor arms and returns the context's dedicated-MAX pruning context for
// this query group (see maxmeb.go).
func (ec *ExecContext) mebFor(qs []geom.Point, w *weightCtx) *mebCtx {
	ec.meb.init(&ec.mebs, qs, w)
	return &ec.meb
}

// boundingRect computes MBR(qs) into the context's reusable corners.
func (ec *ExecContext) boundingRect(qs []geom.Point) geom.Rect {
	ec.qmbr = geom.BoundingRectInto(ec.qmbr, qs)
	return ec.qmbr
}

// centerOf computes r's centre into the context's reusable point.
func (ec *ExecContext) centerOf(r geom.Rect) geom.Point {
	d := r.Dim()
	if cap(ec.qcent) < d {
		ec.qcent = make(geom.Point, d)
	}
	ec.qcent = ec.qcent[:d]
	for i := range ec.qcent {
		ec.qcent[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return ec.qcent
}

// floats returns a zeroed []float64 of length n backed by dst, growing it
// as needed.
func growFloats(dst []float64, n int) []float64 {
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	return dst
}

// grow returns dst with length n (contents undefined), reallocating only
// when capacity is short.
func grow[T any](dst []T, n int) []T {
	if cap(dst) < n {
		dst = make([]T, n)
	}
	return dst[:n]
}

// reset prepares the accumulator for a new query with result size k
// (k = 0 only for Release-time zeroing), dropping prior results and
// zeroing their payloads while keeping the backing array. It zeroes up to
// capacity, not length: offer's append-then-truncate leaves an evicted
// candidate in the slot beyond len, which must not stay pinned while the
// context sits in the pool.
func (b *kbest) reset(k int) {
	clear(b.items[:cap(b.items)])
	b.items = b.items[:0]
	if cap(b.items) < k {
		b.items = make([]GroupNeighbor, 0, k)
	}
	b.k = k
	b.shared = nil
	b.reject = nil
}
