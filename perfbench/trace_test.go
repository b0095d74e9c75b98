package main

import (
	"testing"
	"time"
)

func sp(start, end int64) span { return span{Start: start, End: end} }

func TestSelfTime(t *testing.T) {
	parent := sp(100, 200)
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one nested child", []span{sp(110, 150)}, 60},
		{"two disjoint children", []span{sp(110, 120), sp(150, 180)}, 60},
		{"overlapping children count once", []span{sp(110, 150), sp(140, 160)}, 50},
		{"child inside another", []span{sp(110, 190), sp(120, 130)}, 20},
		{"child sticking out is clipped", []span{sp(50, 120), sp(190, 300)}, 70},
		{"child outside the parent", []span{sp(10, 90), sp(200, 250)}, 100},
		{"children covering the parent", []span{sp(100, 160), sp(150, 200)}, 0},
		{"unsorted children", []span{sp(170, 180), sp(110, 130)}, 70},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestNestedSelf(t *testing.T) {
	if got := nestedSelf(1500*time.Microsecond, 1200*time.Microsecond); got != 300*time.Microsecond {
		t.Errorf("nestedSelf = %v, want 300µs", got)
	}
	// A child replayed slower than its parent leaves no self time.
	if got := nestedSelf(time.Millisecond, 2*time.Millisecond); got != 0 {
		t.Errorf("nestedSelf with a longer child = %v, want 0", got)
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch
	root := tr.add("server.handler", "r1", 0, t0, t0.Add(time.Millisecond))
	child := tr.add("gnn.explain", "r1", root, t0.Add(time.Microsecond), t0.Add(900*time.Microsecond))
	if root != 1 || child != 2 || tr.spans[1].Parent != root || tr.spans[1].RID != "r1" {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if got := selfTime(tr.spans[0], tr.spans[1:]); got != 101*time.Microsecond {
		t.Errorf("self = %v, want 101µs", got)
	}
}
