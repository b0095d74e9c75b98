package shard

import (
	"runtime"
	"sync"
	"time"

	"gnn/internal/core"
	"gnn/internal/geom"
	"gnn/internal/rtree"
)

// engine is the shard-per-core scatter executor: one long-lived worker
// goroutine per shard, each pinned to an OS thread and owning a private
// execution context it never returns to the global pool. A scattered
// query hands shard i's work to worker i over that worker's own channel,
// so the fan-out touches no shared scratch (no core.AcquireExec pool
// contention, no work-stealing counter) — the only cross-core traffic of
// a scattered query is the SharedBound atomic the kernels already
// exchange. Workers start on the first parallel scatter and run until
// close; each one's context stays warm for its shard's node sizes, which
// a pooled context cycling between shards and plain queries cannot.
type engine struct {
	jobs      []chan scatterTask
	closeOnce sync.Once
	// scatters counts inflight scatter calls. Leases are taken under the
	// owning Set's engMu before its closed flag flips (acquireEngine), so
	// Set.Close can Wait for the count to drain and then close the worker
	// channels without racing a send.
	scatters sync.WaitGroup
}

// release returns a scatter lease taken by Set.acquireEngine.
func (e *engine) release() { e.scatters.Done() }

// scatterTask is one shard's share of one scattered query. The worker
// fills in its private execution context before running the kernel.
type scatterTask struct {
	qs     []geom.Point
	opt    core.Options // per-shard Cost/Trace/Shared wired by Search
	unit   *rtree.Packed
	kernel Kernel
	run    *shardRun
	timed  bool // record the shard's wall time into run.dur
	wg     *sync.WaitGroup
}

// newEngine starts one pinned worker per shard. The engine must not
// reference the owning Set: the Set's cleanup closes the engine when the
// Set becomes unreachable, which a back-reference would prevent.
func newEngine(shards int) *engine {
	e := &engine{jobs: make([]chan scatterTask, shards)}
	for i := range e.jobs {
		// Capacity 1 lets a scattering goroutine hand out all shards'
		// tasks without blocking on a busy worker mid-loop.
		e.jobs[i] = make(chan scatterTask, 1)
		go e.worker(i)
	}
	return e
}

func (e *engine) worker(i int) {
	// Pin the worker to its OS thread: the scheduler then keeps shard
	// i's traversals (and their cache residency) from migrating between
	// cores mid-query.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ec := &core.ExecContext{} // private; never pooled, never shared
	for t := range e.jobs[i] {
		t.opt.Exec = ec
		// runKernel contains panics: a resident worker must outlive any
		// single query's failure, or one bad request would wedge every
		// future scatter on a dead channel.
		var start time.Time
		if t.timed {
			start = time.Now()
		}
		t.run.list, t.run.err = runKernel(t.kernel, t.unit, t.qs, t.opt)
		if t.timed {
			t.run.dur = time.Since(start)
		}
		t.wg.Done()
	}
}

// scatter runs one query's per-shard tasks on the pinned workers and
// waits for all of them. runs[i] receives shard i's result list, error
// and cost; optFor wires the per-shard options.
func (e *engine) scatter(qs []geom.Point, runs []shardRun, units []*rtree.Packed, kernel Kernel, timed bool, optFor func(i int) core.Options) {
	var wg sync.WaitGroup
	wg.Add(len(units))
	for i := range units {
		e.jobs[i] <- scatterTask{
			qs: qs, opt: optFor(i), unit: units[i],
			kernel: kernel, run: &runs[i], timed: timed, wg: &wg,
		}
	}
	wg.Wait()
}

// close shuts the workers down. Idempotent; must not race with scatter
// (the Set's Close carries the same no-concurrent-queries contract as a
// mutation, and the GC cleanup only runs once the Set — and therefore
// any query against it — is unreachable).
func (e *engine) close() {
	e.closeOnce.Do(func() {
		for _, ch := range e.jobs {
			close(ch)
		}
	})
}
