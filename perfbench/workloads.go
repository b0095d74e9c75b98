package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"gnn"
	"gnn/internal/dataset"
	"gnn/internal/server"
	"gnn/internal/workload"
)

// op is one request type: a kernel and an aggregate, as named on the wire.
type op struct{ algo, agg string }

func (o op) String() string { return o.algo + "_" + o.agg }

// aggregate maps the wire name to the library's aggregate.
func (o op) aggregate() gnn.Aggregate {
	switch o.agg {
	case "max":
		return gnn.MaxDist
	case "min":
		return gnn.MinDist
	default:
		return gnn.SumDist
	}
}

// spec is one workload: the data, the query shape, the traffic.
type spec struct {
	name      string
	dataset   string // "TS" or "PP", from internal/dataset
	groupSize int    // query points per group (the paper's n)
	area      float64
	k         int
	ops       []op // request types, rotated over the pool
	sharded   bool // serve a BuildShardedIndex snapshot with nproc shards
	pool      int  // distinct queries; the closed loop cycles over them
	// queryClients is the closed-loop client count; 0 means nproc.
	queryClients int
	// writeRate is the open-loop writer's rate in writes/s; 0 = no writer.
	writeRate int
	// compactThreshold is passed to gnnserve -compact-threshold.
	compactThreshold int
	// checkSample is how many queries a write workload checks against
	// brute force over the live set once its writer has quiesced.
	checkSample int
}

var (
	mbmSum = op{"mbm", "sum"}
	specs  = []spec{
		{name: "ts-read", dataset: "TS", groupSize: 64, area: 0.08, k: 8,
			ops: []op{mbmSum}, pool: 128},
		{name: "ts-sharded", dataset: "TS", groupSize: 64, area: 0.08, k: 8,
			ops: []op{mbmSum}, pool: 128, sharded: true},
		{name: "ts-write", dataset: "TS", groupSize: 64, area: 0.08, k: 8,
			ops: []op{mbmSum}, pool: 128, queryClients: 1,
			writeRate: 375, compactThreshold: 2500, checkSample: 16},
		{name: "pp-small-mix", dataset: "PP", groupSize: 4, area: 0.01, k: 1,
			ops: []op{mbmSum, {"mbm", "max"}, {"spm", "sum"}, {"mqm", "sum"}}, pool: 1024},
	}
)

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// query is one pool entry with its two wire bodies.
type query struct {
	group  []gnn.Point
	op     op
	body   []byte // untraced request
	traced []byte // the same request with "trace": true
}

// write is one entry of the open-loop write log.
type write struct {
	del  bool
	p    gnn.Point
	id   int64
	body []byte // server.MutateRequest
}

// inputs is everything a run derives from its seed.
type inputs struct {
	points  []gnn.Point // base data set; point i has ID i
	queries []query
	writes  []write
}

// makeInputs generates the data set, the query pool and (for a write
// workload) a write log of nWrites entries, all from seed.
func makeInputs(s spec, seed int64, nWrites int) (*inputs, error) {
	var d *dataset.Dataset
	switch s.dataset {
	case "TS":
		d = dataset.GenerateTS(seed)
	case "PP":
		d = dataset.GeneratePP(seed)
	default:
		return nil, fmt.Errorf("unknown dataset %q", s.dataset)
	}
	in := &inputs{points: toPoints(d)}
	qs, err := workload.Generate(workload.Spec{
		N: s.groupSize, AreaFraction: s.area, Queries: s.pool,
		Workspace: dataset.Workspace(), Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	for i, q := range qs {
		o := s.ops[i%len(s.ops)]
		req := server.QueryRequest{K: s.k, Algo: o.algo, Agg: o.agg}
		group := make([]gnn.Point, len(q.Points))
		for j, p := range q.Points {
			group[j] = gnn.Point(p)
			req.Query = append(req.Query, p)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		req.Trace = true
		traced, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		in.queries = append(in.queries, query{group: group, op: o, body: body, traced: traced})
	}
	if nWrites > 0 {
		// Inserted points are drawn from the same generator under another
		// seed, so they follow the data set's distribution.
		extra := toPoints(dataset.GenerateTS(seed + 1))
		if in.writes, err = writeLog(in.points, extra, nWrites, seed+2); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func toPoints(d *dataset.Dataset) []gnn.Point {
	pts := make([]gnn.Point, len(d.Points))
	for i, p := range d.Points {
		pts[i] = gnn.Point(p)
	}
	return pts
}

// writeLog builds n writes over base (point i has ID i): three inserts
// per delete, inserts taking extra's points in order with fresh IDs,
// deletes alternating between an earlier insert and a base point, each
// chosen uniformly among the still-live ones. Every delete names a live
// (point, id), so a correct server acknowledges all of them.
func writeLog(base, extra []gnn.Point, n int, seed int64) ([]write, error) {
	rng := rand.New(rand.NewSource(seed))
	nBase := int64(len(base))
	pointOf := func(id int64) gnn.Point {
		if id < nBase {
			return base[id]
		}
		return extra[id-nBase]
	}
	baseLive := make([]int64, nBase)
	for i := range baseLive {
		baseLive[i] = int64(i)
	}
	var inserted []int64 // live inserted IDs
	take := func(ids *[]int64) int64 {
		s := *ids
		j := rng.Intn(len(s))
		id := s[j]
		s[j] = s[len(s)-1]
		*ids = s[:len(s)-1]
		return id
	}
	out := make([]write, n)
	next := int64(0)
	for i := range out {
		w := &out[i]
		switch {
		case i%4 != 3:
			if next == int64(len(extra)) {
				return nil, fmt.Errorf("write log: only %d insert points", len(extra))
			}
			w.id = nBase + next
			inserted = append(inserted, w.id)
			next++
		case (i/4)%2 == 0 && len(inserted) > 0:
			w.del, w.id = true, take(&inserted)
		default:
			w.del, w.id = true, take(&baseLive)
		}
		w.p = pointOf(w.id)
		body, err := json.Marshal(server.MutateRequest{Point: w.p, ID: w.id})
		if err != nil {
			return nil, err
		}
		w.body = body
	}
	return out, nil
}

// liveSet replays writes over the base and returns the surviving points
// and IDs in ID order.
func liveSet(base []gnn.Point, ws []write) ([]gnn.Point, []int64) {
	dead := make(map[int64]bool)
	var ins []write
	for _, w := range ws {
		if w.del {
			dead[w.id] = true
		} else {
			ins = append(ins, w)
		}
	}
	pts := make([]gnn.Point, 0, len(base)+len(ins))
	ids := make([]int64, 0, len(base)+len(ins))
	for i, p := range base {
		if !dead[int64(i)] {
			pts = append(pts, p)
			ids = append(ids, int64(i))
		}
	}
	for _, w := range ins {
		if !dead[w.id] {
			pts = append(pts, w.p)
			ids = append(ids, w.id)
		}
	}
	return pts, ids
}
