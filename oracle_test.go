package gnn_test

// Brute-force-oracle differential suite: every algorithm × aggregate ×
// k × region cell, across every serving environment (plain index,
// sharded scatter-gather, mapped snapshot, overlay-mutated index), must
// reproduce an independent streaming brute-force scan of the live point
// set bit for bit — identical distances, identical IDs up to sanctioned
// exact ties — through GroupNN and through the incremental iterator. The oracle
// below shares no traversal code with the kernels: it recomputes every
// aggregate distance from raw coordinates with the library's canonical
// floating-point op order (per-member sqrt of an axis-ordered squared
// sum, aggregated in member order), so agreement is exact, not
// approximate.
//
// Registering a new cell is one line in oracleCells; registering a new
// environment is one entry in the environment table of
// TestOracleDifferential.

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"gnn"
)

// oracleRegion is the constraint rectangle of the region cells: it cuts
// through the 1000-wide workspace, so some groups sit inside it, some
// straddle its border and some lie outside.
var oracleRegion = [2]gnn.Point{{120, 80}, {640, 710}}

// inRegion reports whether p lies inside oracleRegion (borders inclusive).
func inRegion(p gnn.Point) bool {
	for ax := range p {
		if p[ax] < oracleRegion[0][ax] || p[ax] > oracleRegion[1][ax] {
			return false
		}
	}
	return true
}

// oracleDist is the reference aggregate distance: no kernel code, same
// canonical FP op order (see weighted.go's SoA fast-path contract).
func oracleDist(p gnn.Point, qs []gnn.Point, agg gnn.Aggregate, w []float64) float64 {
	var out float64
	if agg == gnn.MinDist {
		out = math.Inf(1)
	}
	for i, q := range qs {
		var dsq float64
		for ax := range p {
			d := p[ax] - q[ax]
			dsq += d * d
		}
		d := math.Sqrt(dsq)
		if w != nil {
			d *= w[i]
		}
		switch agg {
		case gnn.MaxDist:
			if d > out {
				out = d
			}
		case gnn.MinDist:
			if d < out {
				out = d
			}
		default:
			out += d
		}
	}
	return out
}

// oracleTopK is the streaming brute-force ground truth: every live point
// (inside oracleRegion when region is set) scored, sorted ascending by
// aggregate distance (ties by ID — the tie-aware comparison treats
// equal-distance runs as sets).
func oracleTopK(pts []gnn.Point, ids []int64, qs []gnn.Point,
	agg gnn.Aggregate, w []float64, region bool, k int) []gnn.Result {
	all := make([]gnn.Result, 0, len(pts))
	for i, p := range pts {
		if !region || inRegion(p) {
			all = append(all, gnn.Result{Point: p, ID: ids[i], Dist: oracleDist(p, qs, agg, w)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// oracleCell is one registered query shape. weighted derives a
// deterministic per-member weight vector from the group size; region
// constrains results to oracleRegion. rtol 0
// demands bit-identical distances (the single-pass kernels share the
// oracle's canonical FP op order); MQM cells carry an ulp-scale
// tolerance because its incremental per-stream accumulation legitimately
// reassociates the sum.
type oracleCell struct {
	name     string
	k        int
	agg      gnn.Aggregate
	weighted bool
	region   bool
	sumOnly  bool // cell uses an algorithm whose pruning lemma is sum-only
	rtol     float64
	opts     []gnn.QueryOption
}

func oracleCells() []oracleCell {
	c := func(name string, k int, agg gnn.Aggregate, weighted bool, opts ...gnn.QueryOption) oracleCell {
		return oracleCell{name: name, k: k, agg: agg, weighted: weighted, opts: opts}
	}
	mbm := gnn.WithAlgorithm(gnn.AlgoMBM)
	df := gnn.WithDepthFirst()
	return []oracleCell{
		c("MBM-BF/sum", 5, gnn.SumDist, false, mbm),
		c("MBM-BF/max", 5, gnn.MaxDist, false, mbm),
		c("MBM-BF/min", 5, gnn.MinDist, false, mbm),
		c("MBM-DF/sum", 5, gnn.SumDist, false, mbm, df),
		c("MBM-DF/max", 5, gnn.MaxDist, false, mbm, df),
		c("MBM-BF/max-generic", 5, gnn.MaxDist, false, mbm, gnn.WithGenericMax()),
		c("MBM-DF/max-generic", 5, gnn.MaxDist, false, mbm, df, gnn.WithGenericMax()),
		c("MBM-BF/max/k=1", 1, gnn.MaxDist, false, mbm),
		c("MBM-BF/max/k=32", 32, gnn.MaxDist, false, mbm),
		c("MBM-BF/sum/weighted", 5, gnn.SumDist, true, mbm),
		c("MBM-BF/max/weighted", 5, gnn.MaxDist, true, mbm),
		c("MBM-DF/max/weighted", 5, gnn.MaxDist, true, mbm, df),
		c("MBM-BF/max-generic/weighted", 5, gnn.MaxDist, true, mbm, gnn.WithGenericMax()),
		{name: "MQM/sum", k: 3, agg: gnn.SumDist, rtol: 1e-12,
			opts: []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMQM)}},
		{name: "MQM/max", k: 3, agg: gnn.MaxDist, rtol: 1e-12,
			opts: []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMQM)}},
		{name: "SPM/sum", k: 5, agg: gnn.SumDist, sumOnly: true,
			opts: []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoSPM)}},
		c("brute/max", 5, gnn.MaxDist, false, gnn.WithAlgorithm(gnn.AlgoBruteForce)),
		// Region cells: MBM, SPM and the iterator prune subtrees outside
		// the region inside the traversal; MQM and brute force filter
		// point by point.
		{name: "MBM-BF/sum/region", k: 5, agg: gnn.SumDist, region: true, opts: []gnn.QueryOption{mbm}},
		{name: "MBM-DF/sum/region", k: 5, agg: gnn.SumDist, region: true, opts: []gnn.QueryOption{mbm, df}},
		{name: "MBM-BF/max/region", k: 5, agg: gnn.MaxDist, region: true, opts: []gnn.QueryOption{mbm}},
		{name: "MBM-DF/min/weighted/region", k: 5, agg: gnn.MinDist, weighted: true, region: true,
			opts: []gnn.QueryOption{mbm, df}},
		{name: "SPM-BF/sum/region", k: 5, agg: gnn.SumDist, sumOnly: true, region: true,
			opts: []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoSPM)}},
		{name: "SPM-DF/sum/weighted/region", k: 5, agg: gnn.SumDist, weighted: true, sumOnly: true, region: true,
			opts: []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoSPM), df}},
		{name: "MQM/sum/region", k: 3, agg: gnn.SumDist, rtol: 1e-12, region: true,
			opts: []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMQM)}},
		{name: "brute/sum/region", k: 5, agg: gnn.SumDist, region: true,
			opts: []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoBruteForce)}},
	}
}

// options returns the cell's query options for group qs, with the weight
// vector it implies (nil when unweighted).
func (cell oracleCell) options(qs []gnn.Point) ([]gnn.QueryOption, []float64) {
	opts := append([]gnn.QueryOption{gnn.WithK(cell.k), gnn.WithAggregate(cell.agg)}, cell.opts...)
	var w []float64
	if cell.weighted {
		w = oracleWeights(len(qs))
		opts = append(opts, gnn.WithWeights(w))
	}
	if cell.region {
		opts = append(opts, gnn.WithRegion(oracleRegion[0], oracleRegion[1]))
	}
	return opts, w
}

// oracleWeights derives the deterministic weight vector for a group.
func oracleWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 + float64((i*7)%11)*0.375
	}
	return w
}

// oracleCheck runs one cell against one environment and compares with
// the brute-force ground truth, tie-aware.
func oracleCheck(t *testing.T, env string, g grouper, pts []gnn.Point, ids []int64,
	groups [][]gnn.Point, cell oracleCell) {
	t.Helper()
	for gi, qs := range groups {
		opts, w := cell.options(qs)
		got, err := g.GroupNN(qs, opts...)
		if err != nil {
			t.Fatalf("%s/%s group=%d: %v", env, cell.name, gi, err)
		}
		want := oracleTopK(pts, ids, qs, cell.agg, w, cell.region, cell.k)
		if cell.rtol == 0 {
			sameResults(t, env+"/"+cell.name, want, got)
			continue
		}
		oracleApprox(t, env+"/"+cell.name, want, got, qs, cell.agg, w, cell.rtol)
	}
}

// oracleApprox is the tolerant top-k check for kernels whose reported
// distances legitimately reassociate FP ops: each result must be a real
// point whose true aggregate distance matches its reported one within
// rtol, ranks must be non-decreasing, and the k-th distance must match
// the oracle's k-th within rtol (so no qualifying point was dropped and
// no non-qualifying point slipped in beyond tie noise).
func oracleApprox(t *testing.T, name string, want, got []gnn.Result,
	qs []gnn.Point, agg gnn.Aggregate, w []float64, rtol float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results vs %d", name, len(want), len(got))
	}
	close := func(a, b float64) bool { return math.Abs(a-b) <= rtol*(1+math.Abs(a)+math.Abs(b)) }
	for i, r := range got {
		if i > 0 && got[i-1].Dist > r.Dist {
			t.Fatalf("%s: ranks out of order at %d: %v > %v", name, i, got[i-1].Dist, r.Dist)
		}
		if exact := oracleDist(r.Point, qs, agg, w); !close(exact, r.Dist) {
			t.Fatalf("%s: rank %d reports dist %v, true aggregate distance %v",
				name, i, r.Dist, exact)
		}
		if !close(want[i].Dist, r.Dist) {
			t.Fatalf("%s: rank %d dist %v, oracle %v\nwant: %v\ngot:  %v",
				name, i, r.Dist, want[i].Dist, want, got)
		}
	}
}

func TestOracleDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	pts := clusterPoints(rng, 2200, 1000)
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	groups := make([][]gnn.Point, 10)
	for i := range groups {
		groups[i] = queryGroup(rng, []int{1, 2, 5, 16, 48}[i%5], 1000)
	}

	ix, err := gnn.BuildIndex(pts, ids, gnn.IndexConfig{NodeCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := gnn.BuildShardedIndex(pts, ids, 4, gnn.IndexConfig{NodeCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "oracle.snap")
	if err := ix.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := gnn.OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}

	// The overlay environment mutates a copy of the base index — overlay
	// inserts past the fold threshold, base tombstones, overlay deletes,
	// a resurrection — and the oracle tracks the live multiset.
	oix, err := gnn.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mrng := rand.New(rand.NewSource(5432))
	livePts, liveIDs := runMutationScript(t, oix, pts, mrng)

	envs := []struct {
		name string
		g    oracleIndex
		pts  []gnn.Point
		ids  []int64
	}{
		{"plain", ix, pts, ids},
		{"sharded", sx, pts, ids},
		{"mapped", mapped, pts, ids},
		{"overlay", oix, livePts, liveIDs},
	}
	for _, env := range envs {
		for _, cell := range oracleCells() {
			oracleCheck(t, env.name, env.g, env.pts, env.ids, groups, cell)
			if strings.HasPrefix(cell.name, "MBM-BF/") {
				oracleIteratorCheck(t, env.name, env.g, env.pts, env.ids, groups, cell)
			}
		}
	}
	// Every index kind must close promptly once its queries and
	// iterators are done: a leaked lifecycle reference would block Close
	// forever.
	for _, env := range envs {
		done := make(chan error, 1)
		go func() { done <- env.g.Close() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: Close: %v", env.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Close blocked", env.name)
		}
	}
}

// oracleIndex is the surface the oracle drives on every index kind.
type oracleIndex interface {
	grouper
	GroupNNIterator(query []gnn.Point, opts ...gnn.QueryOption) (*gnn.Iterator, error)
	Close() error
}

// oracleIteratorCheck steps the incremental iterator for the cell's first
// k results and compares them with the brute-force ground truth.
func oracleIteratorCheck(t *testing.T, env string, g oracleIndex, pts []gnn.Point, ids []int64,
	groups [][]gnn.Point, cell oracleCell) {
	t.Helper()
	for gi, qs := range groups {
		opts, w := cell.options(qs)
		it, err := g.GroupNNIterator(qs, opts...)
		if err != nil {
			t.Fatalf("%s/%s iterator group=%d: %v", env, cell.name, gi, err)
		}
		var got []gnn.Result
		for len(got) < cell.k {
			r, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, r)
		}
		it.Close()
		sameResults(t, env+"/"+cell.name+"/iterator", oracleTopK(pts, ids, qs, cell.agg, w, cell.region, cell.k), got)
	}
}

// TestOracleGCP checks GCP on every origin of the same arenas: a mapped
// data index paired with a mapped query index must return the heap
// indexes' answer at the heap indexes' cost, and both must match the
// brute-force oracle.
func TestOracleGCP(t *testing.T) {
	rng := rand.New(rand.NewSource(6543))
	pts := clusterPoints(rng, 1500, 1000)
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	ix, err := gnn.BuildIndex(pts, ids, gnn.IndexConfig{NodeCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mapped := openMappedCopy(t, ix, filepath.Join(dir, "p.snap"))
	// Groups of at least two points: a one-point query index never
	// completes a candidate in GCP (see ROADMAP).
	for gi, n := range []int{2, 4, 16, 40} {
		qs := queryGroup(rng, n, 1000)
		qix, err := gnn.BuildIndex(qs, nil, gnn.IndexConfig{NodeCapacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		mq := openMappedCopy(t, qix, filepath.Join(dir, "q.snap"))
		want := oracleTopK(pts, ids, qs, gnn.SumDist, nil, false, 4)
		heap, hcost, err := ix.GroupNNClosestPairsWithCost(qix, 0, gnn.WithK(4))
		if err != nil {
			t.Fatalf("group %d heap GCP: %v", gi, err)
		}
		got, mcost, err := mapped.GroupNNClosestPairsWithCost(mq, 0, gnn.WithK(4))
		if err != nil {
			t.Fatalf("group %d mapped GCP: %v", gi, err)
		}
		oracleApprox(t, "GCP/heap", want, heap, qs, gnn.SumDist, nil, 1e-12)
		if !reflect.DeepEqual(heap, got) {
			t.Fatalf("group %d: mapped GCP diverged from heap\nheap:   %v\nmapped: %v", gi, heap, got)
		}
		if hcost != mcost {
			t.Fatalf("group %d: mapped GCP cost %+v, heap %+v", gi, mcost, hcost)
		}
		if err := mq.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
}

// openMappedCopy snapshots ix to path and maps it back.
func openMappedCopy(t *testing.T, ix *gnn.Index, path string) *gnn.Index {
	t.Helper()
	if err := ix.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	m, err := gnn.OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestOracleCostParity locks the cost contract on top of the result
// contract: for deterministic executions the built index, its
// copy-loaded snapshot and its mapped snapshot traverse the same arena
// and must charge the identical Cost for every cell, and the sequential
// sharded scatter must return the same results.
func TestOracleCostParity(t *testing.T) {
	rng := rand.New(rand.NewSource(8765))
	pts := clusterPoints(rng, 2200, 1000)
	ix, sx := buildBoth(t, pts, 4, gnn.IndexConfig{NodeCapacity: 16})
	path := filepath.Join(t.TempDir(), "parity.snap")
	mapped := openMappedCopy(t, ix, path)
	defer mapped.Close()
	loaded, err := gnn.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	groups := make([][]gnn.Point, 6)
	for i := range groups {
		groups[i] = queryGroup(rng, []int{1, 4, 16}[i%3], 1000)
	}
	run := func(name string, qs []gnn.Point, opts []gnn.QueryOption) {
		t.Helper()
		want, wantCost, err := ix.GroupNNWithCost(qs, opts...)
		if err != nil {
			t.Fatalf("%s built: %v", name, err)
		}
		for _, other := range []struct {
			kind string
			ix   *gnn.Index
		}{{"loaded", loaded}, {"mapped", mapped}} {
			got, cost, err := other.ix.GroupNNWithCost(qs, opts...)
			if err != nil {
				t.Fatalf("%s %s: %v", name, other.kind, err)
			}
			sameResults(t, name+"/"+other.kind, want, got)
			if cost != wantCost {
				t.Fatalf("%s: %s cost %+v, built %+v", name, other.kind, cost, wantCost)
			}
		}
		sRes, _, err := sx.GroupNNWithCost(qs, append(opts, gnn.WithShards(1))...)
		if err != nil {
			t.Fatalf("%s sharded: %v", name, err)
		}
		sameResults(t, name+"/sharded", want, sRes)
	}
	for gi, qs := range groups {
		for _, cell := range oracleCells() {
			opts, _ := cell.options(qs)
			run(cell.name+"/g"+string(rune('0'+gi)), qs, opts)
		}
	}
}
