package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
)

// Differential suite for the two origins of a packed arena: every
// algorithm must return byte-identical results AND charge byte-identical
// per-query costs (logical and physical node accesses, buffer hits) and
// trace counters on an arena built by Pack and on the same arena decoded
// from its snapshot — the arena every OpenSnapshot serves. This is strict
// equality, not tolerance. The answers must also match a brute-force
// oracle, and the region-constrained cells exercise the region pruning
// inside the MBM, SPM and iterator traversals.

// loadedCopy round-trips the arena through its snapshot encoding.
func loadedCopy(t testing.TB, p *rtree.Packed) *rtree.Packed {
	t.Helper()
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var lp rtree.Packed
	if _, err := lp.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	return &lp
}

// diffRun answers the same query on the built and the loaded arena and
// fails on any divergence in results, per-query cost, or trace counters.
// It returns the built arena's results.
func diffRun(t *testing.T, name string, p, lp *rtree.Packed,
	run func(*rtree.Packed, Options) ([]GroupNeighbor, error), opt Options) []GroupNeighbor {
	t.Helper()
	var btk, ltk pagestore.CostTracker
	var btr, ltr Trace

	opt.Cost = &btk
	opt.Trace = &btr
	built, err := run(p, opt)
	if err != nil {
		t.Fatalf("%s (built): %v", name, err)
	}
	opt.Cost = &ltk
	opt.Trace = &ltr
	loaded, err := run(lp, opt)
	if err != nil {
		t.Fatalf("%s (loaded): %v", name, err)
	}
	if !reflect.DeepEqual(built, loaded) {
		t.Fatalf("%s: results diverged between arenas\nbuilt:  %v\nloaded: %v", name, built, loaded)
	}
	if btk != ltk {
		t.Fatalf("%s: per-query cost diverged\nbuilt:  %+v\nloaded: %+v", name, btk, ltk)
	}
	if btr != ltr {
		t.Fatalf("%s: trace diverged\nbuilt:  %+v\nloaded: %+v", name, btr, ltr)
	}
	return built
}

// regionOracle is the brute-force answer over pts (ids are slice indexes)
// honouring aggregate, weights and region; k <= 0 returns every point.
func regionOracle(pts, qs []geom.Point, opt Options, k int) []GroupNeighbor {
	w, _ := newWeightCtx(opt.Weights, len(qs))
	var all []GroupNeighbor
	for i, p := range pts {
		if regionAllows(opt.Region, p) {
			all = append(all, GroupNeighbor{Point: p, ID: int64(i), Dist: aggDistW(opt.Aggregate, p, qs, w)})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Dist < all[j].Dist })
	if k > 0 && k < len(all) {
		all = all[:k]
	}
	return all
}

func TestPackedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := clusteredPts(rng, 3000, 1000)
	p := buildTree(t, pts, 16)
	lp := loadedCopy(t, p)
	region := geom.NewRect(geom.Point{200, 150}, geom.Point{750, 800})

	for trial := 0; trial < 12; trial++ {
		n := []int{1, 3, 8, 32}[trial%4]
		qs := make([]geom.Point, n)
		base := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		for i := range qs {
			qs[i] = geom.Point{base[0] + rng.Float64()*150, base[1] + rng.Float64()*150}
		}
		var weights []float64
		if trial%2 == 1 {
			weights = make([]float64, n)
			for i := range weights {
				weights[i] = 0.25 + rng.Float64()*4
			}
		}
		k := []int{1, 4, 9}[trial%3]
		for _, agg := range []Aggregate{Sum, Max, Min} {
			opt := Options{K: k, Aggregate: agg, Weights: weights}
			if trial%3 == 2 {
				opt.Region = &region
			}
			type cell struct {
				name string
				run  func(*rtree.Packed, Options) ([]GroupNeighbor, error)
				sum  bool
			}
			df := func(kern func(*rtree.Packed, []geom.Point, Options) ([]GroupNeighbor, error)) func(*rtree.Packed, Options) ([]GroupNeighbor, error) {
				return func(p *rtree.Packed, o Options) ([]GroupNeighbor, error) {
					o.Traversal = DepthFirst
					return kern(p, qs, o)
				}
			}
			bf := func(kern func(*rtree.Packed, []geom.Point, Options) ([]GroupNeighbor, error)) func(*rtree.Packed, Options) ([]GroupNeighbor, error) {
				return func(p *rtree.Packed, o Options) ([]GroupNeighbor, error) { return kern(p, qs, o) }
			}
			cells := []cell{
				{"BruteForce", bf(BruteForce), false},
				{"MQM", bf(MQM), false},
				{"MBM-BF", bf(MBM), false},
				{"MBM-DF", df(MBM), false},
				{"SPM-BF", bf(SPM), true},
				{"SPM-DF", df(SPM), true},
			}
			want := regionOracle(pts, qs, opt, k)
			for _, c := range cells {
				if c.sum && agg != Sum {
					continue
				}
				name := fmt.Sprintf("trial%d/%s/%v/k=%d/weighted=%v/region=%v",
					trial, c.name, agg, k, weights != nil, opt.Region != nil)
				oracleEquiv(t, name, diffRun(t, name, p, lp, c.run, opt), want)
			}
		}
	}
}

// TestPackedEquivalenceIterator steps the incremental GNN scan in
// lockstep on the built and the loaded arena, comparing every emitted
// neighbor, every peek bound and the running cost, and checks the stream
// against the oracle's full ranking.
func TestPackedEquivalenceIterator(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts := clusteredPts(rng, 2000, 800)
	p := buildTree(t, pts, 16)
	lp := loadedCopy(t, p)
	region := geom.NewRect(geom.Point{100, 100}, geom.Point{500, 600})

	for _, agg := range []Aggregate{Sum, Max, Min} {
		for _, constrained := range []bool{false, true} {
			qs := make([]geom.Point, 6)
			for i := range qs {
				qs[i] = geom.Point{rng.Float64() * 800, rng.Float64() * 800}
			}
			var btk, ltk pagestore.CostTracker
			bopt := Options{Aggregate: agg, Cost: &btk}
			if constrained {
				bopt.Region = &region
			}
			lopt := bopt
			lopt.Cost = &ltk
			bi, err := NewGNNIterator(p, qs, bopt)
			if err != nil {
				t.Fatal(err)
			}
			li, err := NewGNNIterator(lp, qs, lopt)
			if err != nil {
				t.Fatal(err)
			}
			want := regionOracle(pts, qs, bopt, 0)
			var got []GroupNeighbor
			for i := 0; i < 300; i++ {
				bp, bpo := bi.PeekDist()
				lpk, lpo := li.PeekDist()
				if bp != lpk || bpo != lpo {
					t.Fatalf("agg %v region=%v: peek diverged at %d: %v/%v vs %v/%v", agg, constrained, i, bp, bpo, lpk, lpo)
				}
				bn, bok := bi.Next()
				ln, lok := li.Next()
				if bok != lok || !reflect.DeepEqual(bn, ln) {
					t.Fatalf("agg %v region=%v: stream diverged at %d:\nbuilt:  %v %v\nloaded: %v %v", agg, constrained, i, bn, bok, ln, lok)
				}
				if btk != ltk {
					t.Fatalf("agg %v region=%v: cost diverged at %d: %+v vs %+v", agg, constrained, i, btk, ltk)
				}
				if !bok {
					break
				}
				got = append(got, bn)
			}
			if len(want) > len(got) {
				want = want[:len(got)]
			}
			oracleEquiv(t, fmt.Sprintf("iterator/%v/region=%v", agg, constrained), got, want)
			bi.Close()
			li.Close()
		}
	}
}

// TestPackedEquivalenceDisk covers the disk-resident family: F-MQM (whose
// per-block streams ride the GNNIterator) and F-MBM in both traversals,
// comparing neighbors, rounds and combined I/O cost between the built
// and the loaded arena, and the neighbors against the oracle.
func TestPackedEquivalenceDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := clusteredPts(rng, 2500, 1000)
	p := buildTree(t, pts, 16)
	lp := loadedCopy(t, p)

	for trial := 0; trial < 4; trial++ {
		nq := []int{40, 120, 400, 800}[trial]
		qpts := make([]geom.Point, nq)
		base := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		for i := range qpts {
			qpts[i] = geom.Point{base[0] + rng.Float64()*300, base[1] + rng.Float64()*300}
		}
		k := []int{1, 5}[trial%2]
		want, err := BruteForcePoints(pts, qpts, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}

		type cell struct {
			name string
			run  func(*rtree.Packed, Options) (*DiskReport, error)
		}
		queryFile := func() (*QueryFile, error) {
			return NewQueryFile(qpts, 50, pagestore.NewAccountant(0), 1<<40)
		}
		cells := []cell{
			{"F-MQM", func(p *rtree.Packed, o Options) (*DiskReport, error) {
				qf, err := queryFile()
				if err != nil {
					return nil, err
				}
				return FMQM(p, qf, DiskOptions{Options: o})
			}},
			{"F-MBM-BF", func(p *rtree.Packed, o Options) (*DiskReport, error) {
				qf, err := queryFile()
				if err != nil {
					return nil, err
				}
				return FMBM(p, qf, DiskOptions{Options: o})
			}},
			{"F-MBM-DF", func(p *rtree.Packed, o Options) (*DiskReport, error) {
				o.Traversal = DepthFirst
				qf, err := queryFile()
				if err != nil {
					return nil, err
				}
				return FMBM(p, qf, DiskOptions{Options: o})
			}},
		}
		for _, c := range cells {
			name := fmt.Sprintf("trial%d/%s/k=%d", trial, c.name, k)
			var btk, ltk pagestore.CostTracker
			brep, err := c.run(p, Options{K: k, Cost: &btk})
			if err != nil {
				t.Fatalf("%s (built): %v", name, err)
			}
			lrep, err := c.run(lp, Options{K: k, Cost: &ltk})
			if err != nil {
				t.Fatalf("%s (loaded): %v", name, err)
			}
			if !reflect.DeepEqual(brep.Neighbors, lrep.Neighbors) {
				t.Fatalf("%s: neighbors diverged\nbuilt:  %v\nloaded: %v", name, brep.Neighbors, lrep.Neighbors)
			}
			if brep.Rounds != lrep.Rounds {
				t.Fatalf("%s: rounds %d vs %d", name, brep.Rounds, lrep.Rounds)
			}
			if brep.Cost != lrep.Cost {
				t.Fatalf("%s: cost diverged\nbuilt:  %+v\nloaded: %+v", name, brep.Cost, lrep.Cost)
			}
			oracleEquiv(t, name, brep.Neighbors, want)
		}
	}
}

// FuzzPackedEquivalence fuzzes the built/loaded differential and the
// oracle check across dataset shape, group size, k, aggregate, traversal
// and — on even seeds — a region constraint. Any result or cost
// divergence crashes the fuzz target.
func FuzzPackedEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(4), uint8(2), uint8(0), false)
	f.Add(int64(2), uint16(60), uint8(1), uint8(1), uint8(1), true)
	f.Add(int64(3), uint16(900), uint8(16), uint8(7), uint8(2), false)
	f.Add(int64(4), uint16(2), uint8(3), uint8(5), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, groupSize, k, agg uint8, df bool) {
		rng := rand.New(rand.NewSource(seed))
		np := int(n)%1200 + 1
		pts := clusteredPts(rng, np, 500)
		p := buildTree(t, pts, 8)
		lp := loadedCopy(t, p)
		qs := make([]geom.Point, int(groupSize)%24+1)
		for i := range qs {
			qs[i] = geom.Point{rng.Float64() * 600, rng.Float64() * 600}
		}
		opt := Options{
			K:         int(k)%12 + 1,
			Aggregate: []Aggregate{Sum, Max, Min}[int(agg)%3],
		}
		if df {
			opt.Traversal = DepthFirst
		}
		if seed%2 == 0 {
			region := geom.NewRect(geom.Point{100, 50}, geom.Point{350, 450})
			opt.Region = &region
		}
		want := regionOracle(pts, qs, opt, opt.K)
		kernels := []struct {
			name string
			kern func(*rtree.Packed, []geom.Point, Options) ([]GroupNeighbor, error)
		}{{"MBM", MBM}, {"MQM", MQM}, {"SPM", SPM}}
		for _, c := range kernels {
			if c.name == "SPM" && opt.Aggregate != Sum {
				continue
			}
			got := diffRun(t, "fuzz/"+c.name, p, lp, func(p *rtree.Packed, o Options) ([]GroupNeighbor, error) {
				return c.kern(p, qs, o)
			}, opt)
			oracleEquiv(t, "fuzz/"+c.name, got, want)
		}
	})
}
