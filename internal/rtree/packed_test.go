package rtree

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
)

func randTree(t *testing.T, rng *rand.Rand, n, maxEntries int, bulk bool) *Tree {
	t.Helper()
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	cfg := Config{Dim: 2, MaxEntries: maxEntries}
	if bulk {
		tr, err := BulkLoadSTR(cfg, pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.Insert(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestPackedTraversalEquivalence checks that every rtree-level traversal
// returns identical neighbors and charges identical per-query costs on a
// packed arena and on the same arena after a snapshot round trip, and
// that the answers agree with a brute-force scan.
func TestPackedTraversalEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, bulk := range []bool{true, false} {
		tr := randTree(t, rng, 2000, 8, bulk)
		p := tr.Pack()
		if p.Len() != tr.Len() || p.Height() != tr.Height() {
			t.Fatalf("arena shape: len %d/%d height %d/%d", p.Len(), tr.Len(), p.Height(), tr.Height())
		}
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		var lp Packed
		if _, err := lp.ReadFrom(&buf); err != nil {
			t.Fatal(err)
		}
		var pts []geom.Point
		p.All(func(pt geom.Point, _ int64) bool { pts = append(pts, pt); return true })
		if len(pts) != tr.Len() {
			t.Fatalf("All streamed %d of %d points", len(pts), tr.Len())
		}
		for trial := 0; trial < 50; trial++ {
			q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
			k := 1 + rng.Intn(10)
			want := bruteKNN(pts, q, k)

			for _, nn := range []struct {
				name string
				run  func(Reader) []Neighbor
			}{
				{"NearestDF", func(r Reader) []Neighbor { return r.NearestDF(q, k) }},
				{"NearestBF", func(r Reader) []Neighbor { return r.NearestBF(q, k) }},
			} {
				var atk, btk pagestore.CostTracker
				a, b := nn.run(p.Reader(&atk)), nn.run(lp.Reader(&btk))
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s diverged (bulk=%v trial %d):\nbuilt:  %v\nloaded: %v", nn.name, bulk, trial, a, b)
				}
				if atk != btk {
					t.Fatalf("%s cost diverged: built %+v loaded %+v", nn.name, atk, btk)
				}
				for i := range a {
					if a[i].Dist != want[i] {
						t.Fatalf("%s rank %d: dist %v, brute force %v", nn.name, i, a[i].Dist, want[i])
					}
				}
			}

			r := geom.NewRect(
				geom.Point{rng.Float64() * 1000, rng.Float64() * 1000},
				geom.Point{rng.Float64() * 1000, rng.Float64() * 1000})
			var ares, bres []int64
			var atk, btk pagestore.CostTracker
			p.Reader(&atk).Search(r, func(_ geom.Point, id int64) bool {
				ares = append(ares, id)
				return true
			})
			lp.Reader(&btk).Search(r, func(_ geom.Point, id int64) bool {
				bres = append(bres, id)
				return true
			})
			if !reflect.DeepEqual(ares, bres) {
				t.Fatalf("Search diverged: %d vs %d ids", len(ares), len(bres))
			}
			if atk != btk {
				t.Fatalf("Search cost diverged: built %+v loaded %+v", atk, btk)
			}
		}

		// Incremental NN streams must emit the same prefix with the same
		// per-step costs.
		q := geom.Point{500, 500}
		var atk, btk pagestore.CostTracker
		ai := p.Reader(&atk).NewNNIterator(q)
		bi := lp.Reader(&btk).NewNNIterator(q)
		for i := 0; i < 200; i++ {
			an, aok := ai.Next()
			bn, bok := bi.Next()
			if aok != bok || !reflect.DeepEqual(an, bn) {
				t.Fatalf("NN stream diverged at %d: %v/%v vs %v/%v", i, an, aok, bn, bok)
			}
			if atk != btk {
				t.Fatalf("NN stream cost diverged at %d: built %+v loaded %+v", i, atk, btk)
			}
		}
		ai.Close()
		bi.Close()
	}
}

// TestPackedShape spot-checks the arena invariants: ranges partition the
// slot spaces, levels decrease by one per child hop, pages match the
// source nodes.
func TestPackedShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := randTree(t, rng, 1500, 10, false)
	p := tr.Pack()
	var walk func(n int32, level int32)
	seenLeaf := 0
	walk = func(n int32, level int32) {
		if p.level[n] != level {
			t.Fatalf("node %d level %d, expected %d", n, p.level[n], level)
		}
		s, e := p.NodeRange(n)
		if s > e {
			t.Fatalf("node %d empty-inverted range [%d,%d)", n, s, e)
		}
		if p.IsLeaf(n) {
			seenLeaf += int(e - s)
			return
		}
		for i := s; i < e; i++ {
			walk(p.ChildOf(i), level-1)
		}
	}
	walk(p.Root(), int32(tr.Height()-1))
	if seenLeaf != tr.Len() {
		t.Fatalf("%d leaf slots reachable, want %d", seenLeaf, tr.Len())
	}
	if p.NumLeafSlots() != tr.Len() {
		t.Fatalf("NumLeafSlots %d, want %d", p.NumLeafSlots(), tr.Len())
	}
	// Pages must be preserved — same id space as the dynamic nodes.
	if p.page[p.Root()] != tr.root.page {
		t.Fatalf("root page %d, want %d", p.page[p.Root()], tr.root.page)
	}
	// RectInto must reproduce the routing rectangles bit for bit.
	var dst geom.Rect
	rootS, rootE := p.NodeRange(p.Root())
	if !p.IsLeaf(p.Root()) {
		for i := rootS; i < rootE; i++ {
			p.RectInto(i, &dst)
			if !dst.Equal(tr.root.entries[i-rootS].Rect) {
				t.Fatalf("RectInto slot %d mismatch", i)
			}
		}
	}
}
