package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"gnn/internal/telemetry"
)

// The /v1/stats latency percentiles are read from a telemetry.Histogram,
// the same bucket scheme /metrics exposes: bucket i holds observations in
// (2^(i-1), 2^i] µs and reports its inclusive upper bound 2^i.

func TestHistogramEmpty(t *testing.T) {
	var h telemetry.Histogram
	p := h.Percentiles(0.50, 0.99, 0.999)
	for i, v := range p {
		if v != 0 {
			t.Errorf("quantile %d = %d on empty histogram, want 0", i, v)
		}
	}
	if m := h.MeanUS(); m != 0 {
		t.Errorf("mean = %v on empty histogram, want 0", m)
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	var h telemetry.Histogram
	h.Observe(100) // bucket 7: (64, 128]
	p := h.Percentiles(0.0, 0.50, 0.99, 0.999)
	for i, v := range p {
		if v != 128 {
			t.Errorf("quantile %d = %d, want 128 (the single bucket's upper bound)", i, v)
		}
	}
	if m := h.MeanUS(); m != 100 {
		t.Errorf("mean = %v, want 100", m)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	// Observations at exact powers of two land in the bucket whose upper
	// bound is that power: (2^(i-1), 2^i] ← BucketUpperUS(i) = 2^i.
	cases := []struct {
		us   uint64
		want uint64 // p50 upper bound with only this observation
	}{
		{0, 1}, // sub-microsecond
		{1, 1}, // [0,1]
		{2, 2}, // (1,2]
		{3, 4}, // (2,4]
		{4, 4}, // (2,4]
		{1023, 1024},
		{1024, 1024},
		{1025, 2048},
	}
	for _, c := range cases {
		var h telemetry.Histogram
		h.Observe(c.us)
		if got := h.Percentiles(0.5)[0]; got != c.want {
			t.Errorf("Observe(%d): p50 = %d, want %d", c.us, got, c.want)
		}
	}
}

// TestHistogramMatchesMetricsBound checks that /v1/stats and /metrics
// agree on the bucket of an exact power of two: the percentile reported
// for observe(2^k) is the le bound the exposition counts it under.
func TestHistogramMatchesMetricsBound(t *testing.T) {
	for _, k := range []uint{0, 1, 4, 10, 20} {
		us := uint64(1) << k
		reg := telemetry.NewRegistry()
		h := reg.Histogram("edge_latency_us", "latency")
		h.Observe(us)
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		bound := h.Percentiles(0.5)[0]
		if bound != us {
			t.Errorf("Observe(%d): stats p50 = %d, want %d", us, bound, us)
		}
		in := fmt.Sprintf("edge_latency_us_bucket{le=\"%d\"} 1\n", bound)
		if !strings.Contains(b.String(), in) {
			t.Errorf("Observe(%d): exposition does not count it under le=%d:\n%s", us, bound, b.String())
		}
		if k > 0 {
			below := fmt.Sprintf("edge_latency_us_bucket{le=\"%d\"} 0\n", bound/2)
			if !strings.Contains(b.String(), below) {
				t.Errorf("Observe(%d): exposition counts it below le=%d", us, bound)
			}
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h telemetry.Histogram
	// Larger than the final bucket's nominal range (~2^39 µs): must clamp
	// into the last bucket, not index out of bounds.
	h.Observe(1 << 50)
	h.Observe(^uint64(0))
	p := h.Percentiles(0.5, 0.999)
	wantUpper := telemetry.BucketUpperUS(telemetry.NumBuckets - 1)
	for i, v := range p {
		if v != wantUpper {
			t.Errorf("quantile %d = %d, want overflow-bucket bound %d", i, v, wantUpper)
		}
	}
	if n := h.Count(); n != 2 {
		t.Errorf("count = %d, want 2", n)
	}
}

func TestHistogramQuantileRankBoundaries(t *testing.T) {
	var h telemetry.Histogram
	// 99 fast observations and 1 slow one: p99 must land on the slow
	// bucket boundary behavior exactly (rank 99 of 0..99 is the slow one).
	for i := 0; i < 99; i++ {
		h.Observe(10) // bucket upper bound 16
	}
	h.Observe(1 << 20) // bucket upper bound 2^20
	p := h.Percentiles(0.50, 0.98, 0.99, 1.0)
	if p[0] != 16 || p[1] != 16 {
		t.Errorf("p50/p98 = %d/%d, want 16/16", p[0], p[1])
	}
	if p[2] != 1<<20 {
		t.Errorf("p99 = %d, want %d (the slow observation)", p[2], 1<<20)
	}
	// q=1.0 clamps to the last recorded rank instead of reading past it.
	if p[3] != 1<<20 {
		t.Errorf("p100 = %d, want %d", p[3], 1<<20)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h telemetry.Histogram
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(uint64(i % 4096))
				if i%512 == 0 {
					h.Percentiles(0.5, 0.99) // concurrent reads must not race
					h.MeanUS()
				}
			}
		}(w)
	}
	wg.Wait()
	if n := h.Count(); n != workers*perWorker {
		t.Errorf("count = %d, want %d", n, workers*perWorker)
	}
	// All observations < 4096 µs, so every quantile is ≤ 4096.
	if p := h.Percentiles(0.999)[0]; p > 4096 {
		t.Errorf("p99.9 = %d, want ≤ 4096", p)
	}
}
