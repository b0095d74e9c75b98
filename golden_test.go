// Golden-trace regression test: the node-access counts of the fixed seed
// workloads below are locked in, so a change that silently regresses
// pruning (looser bounds, reordered candidates, a broken heuristic) fails
// loudly instead of shipping as a quiet slowdown. The counts are exact,
// not thresholds: every traversal in this codebase is deterministic for a
// fixed dataset and query list.
//
// If an intentional pruning improvement changes a number, update the
// table — in its own commit, with the new value justified.
package gnn_test

import (
	"math/rand"
	"testing"

	"gnn"
)

// goldenNA is the locked-in total of physical node accesses (the paper's
// NA metric) summed over the 40 queries of the fixed workload.
var goldenNA = map[string]int64{
	"MBM-BF/sum": 281,
	"MBM-DF/sum": 309,
	"MQM/sum":    7085,
	"SPM-BF/sum": 504,
	"SPM-DF/sum": 534,
	"MBM-BF/max": 251,
	"MBM-DF/max": 283,
	// The dedicated MEB kernel (maxmeb.go) is the default MAX path; the
	// -generic cells lock the old per-member pruning path (WithGenericMax)
	// so both stay regression-guarded independently. On this clustered
	// fixture only the sharded cell improves (the per-shard re-descents
	// give the ball bound more laterally-wide nodes to kill); the uniform
	// 100k benchmark (BENCH_max.json) shows the plain-index gap.
	"MBM-BF/max-generic":      251,
	"MBM-DF/max-generic":      283,
	"sharded-MBM/max-generic": 571,
	"MQM/max":                 9612,
	"sharded-MBM/sum":         583,
	"sharded-MBM/max":         549,
	"sharded-MQM/sum":         13568,
	"iterator-k8/sum":         281,
	"sharded-iter/sum":        432,
	// Region-constrained and disk-resident cells: the region cells prune
	// non-intersecting subtrees inside the traversal; GCP pairs the data
	// index with an index over each query group; the F-MQM/F-MBM cells
	// stream each group from a query file of 8-point blocks, so their
	// cost adds the query pages read to the node accesses.
	"MBM-BF/sum/region": 324,
	"MBM-DF/sum/region": 338,
	"SPM-BF/sum/region": 492,
	"SPM-DF/sum/region": 504,
	"GCP/sum":           12461,
	"F-MQM/sum":         3318,
	"F-MBM/sum":         1089,
	"F-MBM-DF/sum":      1261,
}

// goldenFixture builds the fixed workload: clustered data and spatially
// concentrated query groups from a pinned seed.
func goldenFixture(t *testing.T) (*gnn.Index, *gnn.ShardedIndex, [][]gnn.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(123))
	pts := clusterPoints(rng, 3000, 1000)
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{NodeCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := gnn.BuildShardedIndex(pts, nil, 4, gnn.IndexConfig{NodeCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]gnn.Point, 40)
	for i := range queries {
		queries[i] = queryGroup(rng, []int{1, 4, 16, 64}[i%4], 1000)
	}
	return ix, sx, queries
}

// goldenRegion constrains the region cells to the lower-left 60% square
// of the workspace, so some query groups sit outside it.
var goldenRegion = gnn.WithRegion(gnn.Point{0, 0}, gnn.Point{600, 600})

// fromSet runs a disk-resident golden cell: the group becomes a query
// file of 8-point blocks and the cost is node accesses plus page reads.
func fromSet(ix *gnn.Index, algo gnn.DiskAlgorithm, opts ...gnn.QueryOption) func([]gnn.Point) (gnn.Cost, error) {
	return func(qs []gnn.Point) (gnn.Cost, error) {
		set, err := gnn.NewQuerySet(qs, gnn.QuerySetConfig{BlockPoints: 8})
		if err != nil {
			return gnn.Cost{}, err
		}
		_, c, err := ix.GroupNNFromSetWithCost(set, algo, append(opts, gnn.WithK(8))...)
		return c, err
	}
}

func TestGoldenNodeAccesses(t *testing.T) {
	ix, sx, queries := goldenFixture(t)

	type cell struct {
		name string
		run  func(qs []gnn.Point) (gnn.Cost, error)
	}
	q := func(ix *gnn.Index, opts ...gnn.QueryOption) func([]gnn.Point) (gnn.Cost, error) {
		return func(qs []gnn.Point) (gnn.Cost, error) {
			_, c, err := ix.GroupNNWithCost(qs, append(opts, gnn.WithK(8))...)
			return c, err
		}
	}
	sq := func(opts ...gnn.QueryOption) func([]gnn.Point) (gnn.Cost, error) {
		return func(qs []gnn.Point) (gnn.Cost, error) {
			// WithShards(1): the sequential scatter is the deterministic
			// execution (the bound cascades shard to shard in index order);
			// concurrent scatter has timing-dependent NA by design.
			_, c, err := sx.GroupNNWithCost(qs,
				append(opts, gnn.WithK(8), gnn.WithShards(1))...)
			return c, err
		}
	}
	cells := []cell{
		{"MBM-BF/sum", q(ix, gnn.WithAlgorithm(gnn.AlgoMBM))},
		{"MBM-DF/sum", q(ix, gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithDepthFirst())},
		{"MQM/sum", q(ix, gnn.WithAlgorithm(gnn.AlgoMQM))},
		{"SPM-BF/sum", q(ix, gnn.WithAlgorithm(gnn.AlgoSPM))},
		{"SPM-DF/sum", q(ix, gnn.WithAlgorithm(gnn.AlgoSPM), gnn.WithDepthFirst())},
		{"MBM-BF/max", q(ix, gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist))},
		{"MBM-DF/max", q(ix, gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithDepthFirst(), gnn.WithAggregate(gnn.MaxDist))},
		{"MBM-BF/max-generic", q(ix, gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist), gnn.WithGenericMax())},
		{"MBM-DF/max-generic", q(ix, gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithDepthFirst(), gnn.WithAggregate(gnn.MaxDist), gnn.WithGenericMax())},
		{"sharded-MBM/max-generic", sq(gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist), gnn.WithGenericMax())},
		{"MQM/max", q(ix, gnn.WithAlgorithm(gnn.AlgoMQM), gnn.WithAggregate(gnn.MaxDist))},
		{"sharded-MBM/sum", sq(gnn.WithAlgorithm(gnn.AlgoMBM))},
		{"sharded-MBM/max", sq(gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist))},
		{"sharded-MQM/sum", sq(gnn.WithAlgorithm(gnn.AlgoMQM))},
		{"iterator-k8/sum", func(qs []gnn.Point) (gnn.Cost, error) {
			it, err := ix.GroupNNIterator(qs)
			if err != nil {
				return gnn.Cost{}, err
			}
			defer it.Close()
			for i := 0; i < 8; i++ {
				if _, ok := it.Next(); !ok {
					break
				}
			}
			return it.Cost(), nil
		}},
		{"MBM-BF/sum/region", q(ix, gnn.WithAlgorithm(gnn.AlgoMBM), goldenRegion)},
		{"SPM-BF/sum/region", q(ix, gnn.WithAlgorithm(gnn.AlgoSPM), goldenRegion)},
		{"MBM-DF/sum/region", q(ix, gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithDepthFirst(), goldenRegion)},
		{"SPM-DF/sum/region", q(ix, gnn.WithAlgorithm(gnn.AlgoSPM), gnn.WithDepthFirst(), goldenRegion)},
		{"GCP/sum", func(qs []gnn.Point) (gnn.Cost, error) {
			qix, err := gnn.BuildIndex(qs, nil, gnn.IndexConfig{NodeCapacity: 16})
			if err != nil {
				return gnn.Cost{}, err
			}
			_, c, err := ix.GroupNNClosestPairsWithCost(qix, 0, gnn.WithK(8))
			return c, err
		}},
		{"F-MQM/sum", fromSet(ix, gnn.DiskFMQM)},
		{"F-MBM/sum", fromSet(ix, gnn.DiskFMBM)},
		{"F-MBM-DF/sum", fromSet(ix, gnn.DiskFMBM, gnn.WithDepthFirst())},
		{"sharded-iter/sum", func(qs []gnn.Point) (gnn.Cost, error) {
			it, err := sx.GroupNNIterator(qs)
			if err != nil {
				return gnn.Cost{}, err
			}
			defer it.Close()
			for i := 0; i < 8; i++ {
				if _, ok := it.Next(); !ok {
					break
				}
			}
			return it.Cost(), nil
		}},
	}

	for _, c := range cells {
		var total int64
		for _, qs := range queries {
			cost, err := c.run(qs)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			total += cost.NodeAccesses
		}
		want, ok := goldenNA[c.name]
		if !ok {
			t.Errorf("%s: no golden value; measured %d", c.name, total)
			continue
		}
		if total != want {
			t.Errorf("%s: node accesses changed: got %d, golden %d — a pruning regression "+
				"(or an intentional change that must update the golden table)",
				c.name, total, want)
		}
	}
}
