package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestBaselinePlainNsCellWithoutLayout checks that the telemetry gate
// finds its MBM-BF/sum baseline both in alloc snapshots whose cells carry
// "layout": "packed" and in snapshots whose cells carry no layout, so a
// regenerated BENCH_alloc.json keeps the comparison armed.
func TestBaselinePlainNsCellWithoutLayout(t *testing.T) {
	f := &telemetryFile{NumPoints: 100, Queries: 10, GroupSize: 64, K: 8}
	header := `"num_points": 100, "queries": 10, "group_size": 64, "k": 8`
	for name, cells := range map[string]string{
		"with layout": `{"algorithm": "MBM-BF", "aggregate": "sum", "layout": "dynamic", "ns_per_op": 9},
			{"algorithm": "MBM-BF", "aggregate": "sum", "layout": "packed", "ns_per_op": 42}`,
		"without layout": `{"algorithm": "MBM-DF", "aggregate": "sum", "ns_per_op": 7},
			{"algorithm": "MBM-BF", "aggregate": "sum", "ns_per_op": 42}`,
	} {
		path := filepath.Join(t.TempDir(), "alloc.json")
		if err := os.WriteFile(path, []byte(`{`+header+`, "cells": [`+cells+`]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		ns, skip := baselinePlainNs(path, f)
		if skip != "" || ns != 42 {
			t.Errorf("%s: got %v ns (skip %q), want 42", name, ns, skip)
		}
	}
}
