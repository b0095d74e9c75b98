package main

import (
	"encoding/json"
	"os"
	"testing"

	"gnn"
)

func TestWriteLogDeletesOnlyLivePoints(t *testing.T) {
	base := make([]gnn.Point, 50)
	extra := make([]gnn.Point, 200)
	for i := range base {
		base[i] = gnn.Point{float64(i), 0}
	}
	for i := range extra {
		extra[i] = gnn.Point{float64(i), 1}
	}
	ws, err := writeLog(base, extra, 160, 3)
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[int64]bool)
	for i := range base {
		live[int64(i)] = true
	}
	inserts, insDeletes, baseDeletes := 0, 0, 0
	for i, w := range ws {
		if !w.del {
			inserts++
			if live[w.id] {
				t.Fatalf("write %d inserts id %d twice", i, w.id)
			}
			live[w.id] = true
			continue
		}
		if !live[w.id] {
			t.Fatalf("write %d deletes id %d, which is not live", i, w.id)
		}
		delete(live, w.id)
		if w.id < int64(len(base)) {
			baseDeletes++
		} else {
			insDeletes++
		}
		p := base
		id := w.id
		if id >= int64(len(base)) {
			p, id = extra, id-int64(len(base))
		}
		if w.p[0] != p[id][0] || w.p[1] != p[id][1] {
			t.Fatalf("write %d deletes id %d at %v, its point is %v", i, w.id, w.p, p[id])
		}
	}
	if inserts != 120 || insDeletes != 20 || baseDeletes != 20 {
		t.Errorf("inserts/insert deletes/base deletes = %d/%d/%d, want 120/20/20", inserts, insDeletes, baseDeletes)
	}
	pts, ids := liveSet(base, ws)
	if len(pts) != len(live) || len(ids) != len(live) {
		t.Fatalf("liveSet has %d points, want %d", len(pts), len(live))
	}
	for _, id := range ids {
		if !live[id] {
			t.Errorf("liveSet keeps deleted id %d", id)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if _, err := specByName(w.Name); err != nil || specs[i].name != w.Name {
			t.Errorf("workload %d: %q (%v)", i, w.Name, err)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}
