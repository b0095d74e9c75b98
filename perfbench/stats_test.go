package main

import (
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	d := newDist([]float64{5, 1, 4, 2, 3, 6, 8, 7, 10, 9})
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0, 1}, {1, 10},
	} {
		if got := d.quantile(c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := dist(nil).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	d := newDist(xs)
	v, beyond, ok := d.tail(0.99)
	if v != 990 || beyond != 10 || !ok {
		t.Errorf("p99 of 1000 = %v beyond=%d ok=%v, want 990 beyond=10 ok", v, beyond, ok)
	}
	v, beyond, ok = d.tail(0.999)
	if v != 999 || beyond != 1 || ok {
		t.Errorf("p99.9 of 1000 = %v beyond=%d ok=%v, want 999 beyond=1 not ok", v, beyond, ok)
	}
	// 999 samples: rank 990, nine beyond — one short.
	if _, beyond, ok := newDist(xs[:999]).tail(0.99); beyond != 9 || ok {
		t.Errorf("p99 of 999: beyond=%d ok=%v, want 9 not ok", beyond, ok)
	}
}

func TestDurationsConvertsUnits(t *testing.T) {
	d := durations([]time.Duration{3 * time.Millisecond, 1500 * time.Microsecond}, time.Millisecond)
	if d[0] != 1.5 || d[1] != 3 {
		t.Errorf("durations = %v, want [1.5 3]", d)
	}
}

// answers builds answered queries over consecutive slices: n[s] answers
// of dur[s] each, sent evenly across slice s so that each is answered
// within it.
func answers(n []int, dur []time.Duration) []reply {
	var rs []reply
	for s := range n {
		for i := 0; i < n[s]; i++ {
			start := time.Duration(s)*slice + time.Duration(i)*((slice-dur[s])/time.Duration(n[s]))
			rs = append(rs, reply{start: start, dur: dur[s], status: 200})
		}
	}
	return rs
}

func TestSliceFiguresTakeMedianOverSlices(t *testing.T) {
	ms := time.Millisecond
	// A stall in slice 2: its answers take 50 ms and only 20 are sent.
	rs := answers([]int{100, 100, 20, 100}, []time.Duration{ms, ms, 50 * ms, ms})
	rs = append(rs, reply{start: 0, dur: ms, status: 429})
	f := sliceFigures(rs, 4*slice, nil)
	wantQPS := 100 / slice.Seconds()
	if f.p50 != 1 || f.p90 != 1 || f.qps != wantQPS || f.kept != 4 {
		t.Errorf("sliceFigures = %+v, want p50=1 p90=1 qps=%v over 4 slices", f, wantQPS)
	}
	// Equal steal everywhere, or steal below the floor, sets no slice
	// aside.
	for _, steal := range [][]float64{{0, 0, 0, 0}, {0.2, 0.2, 0.2, 0.2}, {0.004, 0.008, 0, 0.002}} {
		if g := sliceFigures(rs, 4*slice, steal); g != f {
			t.Errorf("steal %v: %+v, want %+v", steal, g, f)
		}
	}
}

func TestSliceFiguresSetAsideStolenSlices(t *testing.T) {
	ms := time.Millisecond
	// Slices 1 and 2 run at half speed while the hypervisor steals CPU.
	rs := answers([]int{100, 50, 50, 100}, []time.Duration{ms, 2 * ms, 2 * ms, ms})
	f := sliceFigures(rs, 4*slice, []float64{0.01, 0.2, 0.3, 0})
	wantQPS := 100 / slice.Seconds()
	if f.kept != 2 || f.p50 != 1 || f.p90 != 1 || f.qps != wantQPS {
		t.Errorf("sliceFigures = %+v, want the two calm slices: p50=1 qps=%v", f, wantQPS)
	}
}
