package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"gnn"
	"gnn/internal/server"
)

// index is the surface of *gnn.Index and *gnn.ShardedIndex the
// benchmark calls, so each workload runs on either kind.
type index interface {
	GroupNNWithCostContext(ctx context.Context, query []gnn.Point, opts ...gnn.QueryOption) ([]gnn.Result, gnn.Cost, error)
	GroupNNExplainContext(ctx context.Context, query []gnn.Point, opts ...gnn.QueryOption) ([]gnn.Result, *gnn.QueryExplain, error)
	Insert(p gnn.Point, id int64) error
	Delete(p gnn.Point, id int64) bool
	Stats() gnn.Stats
	Compact() error
	WriteSnapshotFile(path string) error
	Close() error
}

// queryOpts are the library options matching a pool query's wire request.
func queryOpts(q query, k int) []gnn.QueryOption {
	opts := []gnn.QueryOption{gnn.WithK(k), gnn.WithAggregate(q.op.aggregate())}
	switch q.op.algo {
	case "mqm":
		opts = append(opts, gnn.WithAlgorithm(gnn.AlgoMQM))
	case "spm":
		opts = append(opts, gnn.WithAlgorithm(gnn.AlgoSPM))
	}
	return opts
}

// bruteForce answers every query with the library's brute-force scan,
// the oracle the served answers must equal, on workers goroutines.
func bruteForce(ctx context.Context, ix index, qs []query, k, workers int) ([][]gnn.Result, error) {
	out := make([][]gnn.Result, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(qs); i += workers {
				opts := []gnn.QueryOption{
					gnn.WithK(k), gnn.WithAggregate(qs[i].op.aggregate()),
					gnn.WithAlgorithm(gnn.AlgoBruteForce),
				}
				out[i], _, errs[i] = ix.GroupNNWithCostContext(ctx, qs[i].group, opts...)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("brute force, query %d: %w", i, err)
		}
	}
	return out, nil
}

// mqmRTol is the distance tolerance for MQM answers. MQM accumulates a
// point's aggregate distance stream by stream, which reassociates the
// floating-point sum, so its distances may differ from brute force in
// the last bits; the library's oracle test holds it to this relative
// tolerance, and every other kernel to bit identity. IDs and
// coordinates must be identical for every kernel.
const mqmRTol = 1e-12

// rtol is the op's distance tolerance against brute force.
func (o op) rtol() float64 {
	if o.algo == "mqm" {
		return mqmRTol
	}
	return 0
}

// checkBody decodes a /v1/groupnn response and compares it with the
// oracle's answer. inexact reports a distance that matched only within
// the op's tolerance.
func checkBody(body []byte, want []gnn.Result, rtol float64) (inexact bool, err error) {
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return false, fmt.Errorf("undecodable response: %w", err)
	}
	return sameResults(resp.Results, want, rtol)
}

// sameResults requires the oracle's neighbors in the oracle's order:
// the same IDs and coordinates, and distances bit-identical (rtol 0) or
// within rtol relative.
func sameResults(got []server.ResultJSON, want []gnn.Result, rtol float64) (inexact bool, err error) {
	if len(got) != len(want) {
		return false, fmt.Errorf("%d results, brute force has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || !samePoint(g.Point, w.Point) {
			return false, fmt.Errorf("result %d is id %d, brute force has id %d", i, g.ID, w.ID)
		}
		if math.Float64bits(g.Dist) == math.Float64bits(w.Dist) {
			continue
		}
		if math.Abs(g.Dist-w.Dist) > rtol*(1+math.Abs(g.Dist)+math.Abs(w.Dist)) {
			return false, fmt.Errorf("result %d (id %d) has dist %v, brute force has %v", i, g.ID, g.Dist, w.Dist)
		}
		inexact = true
	}
	return inexact, nil
}

func samePoint(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
