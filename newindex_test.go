package gnn_test

import (
	"math/rand"
	"reflect"
	"testing"

	"gnn"
)

// An index from NewIndex is an empty packed base plus the write overlay,
// the same serving layout as every other index: these tests grow one by
// Insert and hold it to a bulk-loaded index over the same points, before
// and after Pack folds the overlay into a packed base.

func layoutFixture(t *testing.T, n int) ([]gnn.Point, *gnn.Index, [][]gnn.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	pts := make([]gnn.Point, n)
	for i := range pts {
		pts[i] = gnn.Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{NodeCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]gnn.Point, 10)
	for i := range queries {
		g := make([]gnn.Point, 5)
		base := rng.Float64() * 800
		for j := range g {
			g[j] = gnn.Point{base + rng.Float64()*120, base + rng.Float64()*120}
		}
		queries[i] = g
	}
	return pts, ix, queries
}

// grownIndex inserts pts (ids are slice indexes) into a NewIndex.
func grownIndex(t *testing.T, pts []gnn.Point) *gnn.Index {
	t.Helper()
	ix, err := gnn.NewIndex(gnn.IndexConfig{NodeCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := ix.Insert(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

// TestLayoutEquivalencePublic drives the public API over an index grown
// by Insert — first served from the overlay, then from the packed base
// Pack folds it into — and a bulk-loaded index over the same points,
// requiring identical results for every algorithm.
func TestLayoutEquivalencePublic(t *testing.T) {
	pts, built, queries := layoutFixture(t, 1200)
	grown := grownIndex(t, pts)
	algos := []gnn.Algorithm{gnn.AlgoMQM, gnn.AlgoSPM, gnn.AlgoMBM, gnn.AlgoBruteForce}
	for _, stage := range []string{"overlay", "packed"} {
		if stage == "packed" {
			grown.Pack()
			if s := grown.Stats(); s.Delta != 0 || s.CompactGen != 1 {
				t.Fatalf("Pack did not fold the overlay: %+v", s)
			}
		}
		for _, algo := range algos {
			for _, q := range queries {
				want, err := built.GroupNN(q, gnn.WithK(4), gnn.WithAlgorithm(algo))
				if err != nil {
					t.Fatal(err)
				}
				got, err := grown.GroupNN(q, gnn.WithK(4), gnn.WithAlgorithm(algo))
				if err != nil {
					t.Fatalf("%s %v: %v", stage, algo, err)
				}
				if algo == gnn.AlgoMQM {
					// MQM's incremental accumulation may reassociate
					// the sum differently on another tree.
					oracleApprox(t, stage+"/MQM", want, got, q, gnn.SumDist, nil, 1e-12)
					continue
				}
				sameResults(t, stage+"/"+algo.String(), want, got)
			}
		}
	}
	if err := grown.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLayoutLifecycle checks the mutation contract at the API surface:
// a NewIndex serves its inserts from the overlay, Pack folds them into a
// packed base, deletes tombstone base points, and non-mutations change
// nothing.
func TestLayoutLifecycle(t *testing.T) {
	ix, err := gnn.NewIndex(gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := ix.GroupNN([]gnn.Point{{1, 1}}); err != nil || len(res) != 0 {
		t.Fatalf("empty index: %v, %v", res, err)
	}
	if err := ix.Insert(gnn.Point{1, 1}, 10_001); err != nil {
		t.Fatal(err)
	}
	if s := ix.Stats(); s.Points != 1 || s.Delta != 1 {
		t.Fatalf("insert did not land in the overlay: %+v", s)
	}
	for _, algo := range []gnn.Algorithm{gnn.AlgoMQM, gnn.AlgoSPM, gnn.AlgoMBM, gnn.AlgoBruteForce} {
		res, err := ix.GroupNN([]gnn.Point{{1, 1}}, gnn.WithAlgorithm(algo))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].ID != 10_001 {
			t.Fatalf("%v missed the overlay insert: %v", algo, res)
		}
	}
	// Pack folds the overlay into a fresh packed base.
	ix.Pack()
	if s := ix.Stats(); s.Points != 1 || s.Delta != 0 || s.Nodes == 0 {
		t.Fatalf("Pack did not fold the overlay: %+v", s)
	}
	res, err := ix.GroupNN([]gnn.Point{{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 10_001 {
		t.Fatalf("compacted query missed the inserted point: %v", res)
	}
	// Non-mutations change nothing: a no-op delete and a rejected insert
	// leave the overlay empty.
	if ix.Delete(gnn.Point{123456, 123456}, -1) {
		t.Fatal("no-op delete unexpectedly removed something")
	}
	if err := ix.Insert(gnn.Point{1, 2, 3}, 5); err == nil {
		t.Fatal("wrong-dimension insert succeeded")
	}
	if s := ix.Stats(); s.Delta != 0 || s.Tombstones != 0 {
		t.Fatalf("non-mutations touched the overlay: %+v", s)
	}
	// A delete of a base point tombstones it, and queries no longer see
	// the point.
	if !ix.Delete(gnn.Point{1, 1}, 10_001) {
		t.Fatal("delete failed")
	}
	if s := ix.Stats(); s.Tombstones != 1 || s.Points != 0 {
		t.Fatalf("delete did not tombstone the base point: %+v", s)
	}
	if res, err := ix.GroupNN([]gnn.Point{{1, 1}}, gnn.WithK(1)); err != nil {
		t.Fatal(err)
	} else if len(res) != 0 {
		t.Fatalf("query still sees the deleted point: %v", res)
	}
}

// TestLayoutRegionPerAlgorithm checks the region contract on every
// algorithm and the iterator — all answer constrained queries with the
// brute-force ranking of the points inside the region — and that GCP
// serves the same indexes.
func TestLayoutRegionPerAlgorithm(t *testing.T) {
	pts, ix, queries := layoutFixture(t, 1500)
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	lo, hi := gnn.Point{0, 0}, gnn.Point{800, 800}
	inside := func(p gnn.Point) bool { return p[0] <= hi[0] && p[1] <= hi[1] }
	for _, q := range queries[:4] {
		var want []gnn.Result
		for _, r := range oracleTopK(pts, ids, q, gnn.SumDist, nil, false, len(pts)) {
			if inside(r.Point) && len(want) < 3 {
				want = append(want, r)
			}
		}
		for _, algo := range []gnn.Algorithm{gnn.AlgoMQM, gnn.AlgoSPM, gnn.AlgoMBM, gnn.AlgoBruteForce} {
			for _, df := range []bool{false, true} {
				opts := []gnn.QueryOption{gnn.WithK(3), gnn.WithAlgorithm(algo), gnn.WithRegion(lo, hi)}
				if df {
					opts = append(opts, gnn.WithDepthFirst())
				}
				got, err := ix.GroupNN(q, opts...)
				if err != nil {
					t.Fatalf("%v region query: %v", algo, err)
				}
				if algo == gnn.AlgoMQM {
					oracleApprox(t, "MQM/region", want, got, q, gnn.SumDist, nil, 1e-12)
					continue
				}
				sameResults(t, algo.String()+"/region", want, got)
			}
		}
		it, err := ix.GroupNNIterator(q, gnn.WithRegion(lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		var got []gnn.Result
		for len(got) < 3 {
			r, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, r)
		}
		it.Close()
		sameResults(t, "iterator/region", want, got)
	}
	qix, err := gnn.BuildIndex([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.GroupNNClosestPairs(qix, 0); err != nil {
		t.Fatalf("GCP: %v", err)
	}
}

// TestLayoutIteratorEquivalence steps the public incremental iterator on
// an index grown by Insert (served from the overlay) and on a bulk-loaded
// index over the same points in lockstep.
func TestLayoutIteratorEquivalence(t *testing.T) {
	pts, built, queries := layoutFixture(t, 800)
	grown := grownIndex(t, pts)
	for _, q := range queries[:3] {
		bi, err := built.GroupNNIterator(q)
		if err != nil {
			t.Fatal(err)
		}
		gi, err := grown.GroupNNIterator(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			bn, bok := bi.Next()
			gn, gok := gi.Next()
			if bok != gok || !reflect.DeepEqual(bn, gn) {
				t.Fatalf("iterator diverged at %d: %v/%v vs %v/%v", i, bn, bok, gn, gok)
			}
			if !bok {
				break
			}
		}
		bi.Close()
		gi.Close()
	}
}
