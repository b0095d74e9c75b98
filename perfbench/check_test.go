package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"gnn"
	"gnn/internal/server"
)

// smallFixture is a small index and a pool of one query per op.
func smallFixture(t *testing.T) (*gnn.Index, []query) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	pts := make([]gnn.Point, 3000)
	for i := range pts {
		pts[i] = gnn.Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var pool []query
	for _, o := range []op{mbmSum, {"mbm", "max"}, {"spm", "sum"}, {"mqm", "sum"}} {
		g := make([]gnn.Point, 8)
		for j := range g {
			g[j] = gnn.Point{400 + rng.Float64()*200, 400 + rng.Float64()*200}
		}
		pool = append(pool, query{group: g, op: o})
	}
	return ix, pool
}

func TestCheckerAcceptsTheKernelsAnswers(t *testing.T) {
	ctx := context.Background()
	ix, pool := smallFixture(t)
	want, err := bruteForce(ctx, ix, pool, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range pool {
		got, _, err := ix.GroupNNWithCostContext(ctx, q.group, queryOpts(q, 5)...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sameGNN(got, want[i], q.op.rtol()); err != nil {
			t.Errorf("%s: %v", q.op, err)
		}
	}
}

func TestCheckerFlagsPerturbedAnswers(t *testing.T) {
	ix, pool := smallFixture(t)
	want, err := bruteForce(context.Background(), ix, pool[:1], 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := func(edit func(r []server.ResultJSON) []server.ResultJSON) []byte {
		var rs []server.ResultJSON
		for _, w := range want[0] {
			rs = append(rs, server.ResultJSON{ID: w.ID, Point: append([]float64(nil), w.Point...), Dist: w.Dist})
		}
		b, err := json.Marshal(server.QueryResponse{Results: edit(rs)})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if inexact, err := checkBody(body(func(r []server.ResultJSON) []server.ResultJSON { return r }), want[0], 0); err != nil || inexact {
		t.Fatalf("unchanged answer: inexact=%v err=%v", inexact, err)
	}
	for name, edit := range map[string]func(r []server.ResultJSON) []server.ResultJSON{
		"distance one ulp up": func(r []server.ResultJSON) []server.ResultJSON {
			r[2].Dist = math.Nextafter(r[2].Dist, math.Inf(1))
			return r
		},
		"two neighbors swapped": func(r []server.ResultJSON) []server.ResultJSON {
			r[0], r[1] = r[1], r[0]
			return r
		},
		"wrong id": func(r []server.ResultJSON) []server.ResultJSON {
			r[4].ID++
			return r
		},
		"moved point": func(r []server.ResultJSON) []server.ResultJSON {
			r[3].Point[0] += 1e-9
			return r
		},
		"missing neighbor": func(r []server.ResultJSON) []server.ResultJSON { return r[:4] },
	} {
		if _, err := checkBody(body(edit), want[0], 0); err == nil {
			t.Errorf("%s: checker accepted it", name)
		}
	}
	if _, err := checkBody([]byte(`{"results":`), want[0], 0); err == nil {
		t.Error("truncated body: checker accepted it")
	}

	// Under MQM's rounding tolerance an ulp is inexact but correct; a
	// real error is still caught.
	ulp := body(func(r []server.ResultJSON) []server.ResultJSON {
		r[2].Dist = math.Nextafter(r[2].Dist, math.Inf(1))
		return r
	})
	if inexact, err := checkBody(ulp, want[0], mqmRTol); err != nil || !inexact {
		t.Errorf("one ulp under the MQM tolerance: inexact=%v err=%v, want inexact", inexact, err)
	}
	off := body(func(r []server.ResultJSON) []server.ResultJSON {
		r[2].Dist *= 1 + 1e-9
		return r
	})
	if _, err := checkBody(off, want[0], mqmRTol); err == nil {
		t.Error("distance off by 1e-9 relative: accepted under the MQM tolerance")
	}
}
