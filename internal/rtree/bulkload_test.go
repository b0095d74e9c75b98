package rtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gnn/internal/geom"
)

func TestBulkLoadSTR(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	pts := randPoints(rng, 3000, 1000)
	tr, err := BulkLoadSTR(Config{MaxEntries: 10}, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Bulk-loaded trees must answer NN exactly like brute force.
	for trial := 0; trial < 30; trial++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		want := bruteKNN(pts, q, 3)
		got := rd(tr).NearestBF(q, 3)
		for i := range got {
			if !almostEq(got[i].Dist, want[i]) {
				t.Fatalf("trial %d rank %d: %v vs %v", trial, i, got[i].Dist, want[i])
			}
		}
	}
}

func TestBulkLoadHilbert(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := randPoints(rng, 2500, 1000)
	tr, err := BulkLoadHilbert(Config{MaxEntries: 10}, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	q := geom.Point{500, 500}
	want := bruteKNN(pts, q, 10)
	got := rd(tr).NearestBF(q, 10)
	for i := range got {
		if !almostEq(got[i].Dist, want[i]) {
			t.Fatalf("rank %d: %v vs %v", i, got[i].Dist, want[i])
		}
	}
}

func TestBulkLoadEmptyAndTiny(t *testing.T) {
	tr, err := BulkLoadSTR(Config{}, nil, nil)
	if err != nil || tr.Len() != 0 {
		t.Fatalf("empty bulk load: %v, len %d", err, tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	pts := []geom.Point{{1, 1}, {2, 2}}
	tr, err = BulkLoadHilbert(Config{}, pts, []int64{7, 8})
	if err != nil || tr.Len() != 2 || tr.Height() != 1 {
		t.Fatalf("tiny bulk load: %v len %d h %d", err, tr.Len(), tr.Height())
	}
	nn := rd(tr).NearestBF(geom.Point{0, 0}, 1)
	if nn[0].ID != 7 {
		t.Fatalf("NN id = %d", nn[0].ID)
	}
}

func TestBulkLoadValidation(t *testing.T) {
	if _, err := BulkLoadSTR(Config{}, []geom.Point{{1, 2}}, []int64{1, 2}); err == nil {
		t.Fatal("mismatched ids accepted")
	}
	if _, err := BulkLoadSTR(Config{Dim: 3}, []geom.Point{{1, 2}}, nil); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestBulkLoadSizesProperty(t *testing.T) {
	// Any size must produce a structurally valid tree with all points.
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%1200) + 1
		rng := rand.New(rand.NewSource(seed))
		pts := randPoints(rng, n, 500)
		for _, build := range []func(Config, []geom.Point, []int64) (*Tree, error){
			BulkLoadSTR, BulkLoadHilbert,
		} {
			tr, err := build(Config{MaxEntries: 8}, pts, nil)
			if err != nil || tr.Len() != n || tr.CheckInvariants() != nil {
				return false
			}
			count := 0
			tr.Pack().All(func(geom.Point, int64) bool { count++; return true })
			if count != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBulkLoadQualityVsInsertion(t *testing.T) {
	// STR packing should produce leaves with no more total area than
	// one-at-a-time insertion (a weak but telling quality signal).
	rng := rand.New(rand.NewSource(22))
	pts := randPoints(rng, 4000, 1000)
	str, err := BulkLoadSTR(Config{MaxEntries: 20}, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	ins := mustTree(t, Config{MaxEntries: 20})
	insertAll(t, ins, pts)
	a1, a2 := str.ComputeStats().LeafArea, ins.ComputeStats().LeafArea
	if math.IsNaN(a1) || a1 <= 0 {
		t.Fatalf("STR leaf area %v", a1)
	}
	if a1 > a2*1.5 {
		t.Fatalf("STR leaf area %v far worse than insertion %v", a1, a2)
	}
}
