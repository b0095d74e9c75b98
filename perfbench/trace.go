package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"time"

	"gnn"
	"gnn/internal/server"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share rid; parent is the id of the span that caused it (0 for
// a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	RID    string `json:"rid,omitempty"`
	Start  int64  `json:"start_ns"` // from the trace epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// selfTime is the span's duration minus the part of it its children
// cover; overlapping children are counted once and parts of a child
// outside the parent are ignored.
func selfTime(p span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return int(a.lo - b.lo) })
	covered, end := int64(0), p.Start
	for _, v := range ivs {
		lo := max(v.lo, end)
		if v.hi > lo {
			covered += v.hi - lo
			end = v.hi
		}
	}
	return p.dur() - time.Duration(covered)
}

// nestedSelf is the self time of a parent call of duration parent whose
// child call, timed separately on the same input, took child: the child
// is placed at the parent's start. The benchmark times layers only from
// outside, so a layer's inner call is replayed on its own and nested
// this way.
func nestedSelf(parent, child time.Duration) time.Duration {
	p := span{End: int64(parent)}
	return selfTime(p, []span{{End: int64(child)}})
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its id.
func (t *tracer) add(name, rid string, parent int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, RID: rid,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return id
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readReplay is what the serial in-process replay of the read path
// measured. Times are in microseconds.
type readReplay struct {
	handler, handlerSelf, decode, encode, query, explain dist
	// handlerByQuery is each pool query's median handler time.
	handlerByQuery []time.Duration
	allocsPerQuery float64
	// Exact counts over one pass of the pool.
	na, exactDistances, results float64
	// naServed is the NA per query of the call as the daemon makes it; on
	// a sharded index it varies from run to run.
	naServed float64
	naByOp   map[op]float64
	wrong    int
}

// replayReads replays the pool serially, reps times, through an
// in-process server.New(...).Handler() and an in-process mapped open of
// the same snapshot file, timing each layer's public entry point.
func replayReads(ctx context.Context, tr *tracer, s spec, pool []query, want [][]gnn.Result, snap string, reps int) (*readReplay, error) {
	srv, err := server.New(server.Config{
		SnapshotPath: snap,
		// The daemon's default logging, minus the destination.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, fmt.Errorf("in-process server: %w", err)
	}
	defer srv.Close()
	ix, err := openMapped(snap, s.sharded)
	if err != nil {
		return nil, err
	}
	defer ix.Close()

	out := &readReplay{naByOp: make(map[op]float64)}
	n := len(pool)
	var handlerT, explainT, queryT, decodeT, encodeT []time.Duration
	handlerIDs := make([]int, 0, n*reps)
	for rep := 0; rep < reps; rep++ {
		// One layer per sweep of the pool, so every call finds the caches
		// as a different query left them.
		for i, q := range pool {
			rid := replayID(rep, i)
			req := httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/groupnn", bytes.NewReader(q.traced))
			req.Header.Set("X-Request-ID", rid)
			rec := httptest.NewRecorder()
			t0 := time.Now()
			srv.Handler().ServeHTTP(rec, req)
			t1 := time.Now()
			handlerIDs = append(handlerIDs, tr.add("server.handler", rid, 0, t0, t1))
			handlerT = append(handlerT, t1.Sub(t0))
			if rec.Code != http.StatusOK {
				out.wrong++
			} else if _, err := checkBody(rec.Body.Bytes(), want[i], q.op.rtol()); err != nil {
				out.wrong++
			}
			// Encode the same response with the public wire type.
			var resp server.QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				return nil, fmt.Errorf("replay response %d: %w", i, err)
			}
			var buf bytes.Buffer
			t0 = time.Now()
			err := json.NewEncoder(&buf).Encode(resp)
			t1 = time.Now()
			if err != nil {
				return nil, err
			}
			tr.add("server.encode", rid, 0, t0, t1)
			encodeT = append(encodeT, t1.Sub(t0))
		}
		for i, q := range pool {
			rid := replayID(rep, i)
			var req server.QueryRequest
			t0 := time.Now()
			dec := json.NewDecoder(bytes.NewReader(q.traced))
			dec.DisallowUnknownFields()
			err := dec.Decode(&req)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			tr.add("server.decode", rid, 0, t0, t1)
			decodeT = append(decodeT, t1.Sub(t0))
		}
		for i, q := range pool {
			rid := replayID(rep, i)
			t0 := time.Now()
			res, ex, err := ix.GroupNNExplainContext(ctx, q.group, queryOpts(q, s.k)...)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			// The handler's own call into gnn, replayed on its own.
			tr.add("gnn.explain", rid, handlerIDs[rep*n+i], t0, t1)
			explainT = append(explainT, t1.Sub(t0))
			if _, err := sameGNN(res, want[i], q.op.rtol()); err != nil || ex == nil {
				out.wrong++
			}
		}
		for i, q := range pool {
			rid := replayID(rep, i)
			t0 := time.Now()
			res, cost, err := ix.GroupNNWithCostContext(ctx, q.group, queryOpts(q, s.k)...)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			tr.add("gnn.query", rid, 0, t0, t1)
			queryT = append(queryT, t1.Sub(t0))
			if _, err := sameGNN(res, want[i], q.op.rtol()); err != nil {
				out.wrong++
			}
			if rep == 0 {
				out.naServed += float64(cost.NodeAccesses)
			}
		}
	}

	// Exact counts. A sharded query's shards prune against a bound the
	// others tighten concurrently, so under the default parallel scatter
	// its counts depend on scheduling; one shard at a time, they repeat.
	for i, q := range pool {
		opts := queryOpts(q, s.k)
		if s.sharded {
			opts = append(opts, gnn.WithShards(1))
		}
		res, ex, err := ix.GroupNNExplainContext(ctx, q.group, opts...)
		if err != nil {
			return nil, err
		}
		if _, err := sameGNN(res, want[i], q.op.rtol()); err != nil {
			out.wrong++
		}
		out.na += float64(ex.Cost.NodeAccesses)
		out.naByOp[q.op] += float64(ex.Cost.NodeAccesses)
		out.exactDistances += float64(ex.Trace.ExactDistances)
		out.results += float64(len(res))
	}

	// Allocations of the query call alone, with nothing else running.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range pool {
		if _, _, err := ix.GroupNNWithCostContext(ctx, q.group, queryOpts(q, s.k)...); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&after)
	out.allocsPerQuery = float64(after.Mallocs-before.Mallocs) / float64(n)

	selfT := make([]time.Duration, len(handlerT))
	for j := range handlerT {
		selfT[j] = nestedSelf(handlerT[j], explainT[j])
	}
	out.handlerByQuery = make([]time.Duration, n)
	for i := range out.handlerByQuery {
		per := make([]time.Duration, 0, reps)
		for rep := 0; rep < reps; rep++ {
			per = append(per, handlerT[rep*n+i])
		}
		out.handlerByQuery[i] = time.Duration(durations(per, 1).quantile(0.5))
	}
	perOp := make(map[op]int)
	for _, q := range pool {
		perOp[q.op]++
	}
	for o, c := range perOp {
		out.naByOp[o] /= float64(c)
	}
	out.na /= float64(n)
	out.naServed /= float64(n)
	out.exactDistances /= float64(n)
	out.results /= float64(n)
	us := time.Microsecond
	out.handler, out.handlerSelf = durations(handlerT, us), durations(selfT, us)
	out.decode, out.encode = durations(decodeT, us), durations(encodeT, us)
	out.query, out.explain = durations(queryT, us), durations(explainT, us)
	return out, nil
}

// replayID is the request ID of pool query i in replay sweep rep; every
// layer's span of that call shares it.
func replayID(rep, i int) string { return "replay-" + strconv.Itoa(rep) + "-" + strconv.Itoa(i) }

// sameGNN compares two library answers as sameResults compares a served
// one.
func sameGNN(got, want []gnn.Result, rtol float64) (inexact bool, err error) {
	g := make([]server.ResultJSON, len(got))
	for i, r := range got {
		g[i] = server.ResultJSON{ID: r.ID, Point: r.Point, Dist: r.Dist}
	}
	return sameResults(g, want, rtol)
}

// writeReplay is what the serial in-process replay of the write log
// measured. Times are in microseconds.
type writeReplay struct {
	insert, delete dist
	compactions    int
	wrong          int
}

// replayWrites applies the write log to an in-process mapped open of the
// snapshot, folding the overlay with Compact whenever it reaches the
// threshold, as the daemon's compactor would.
func replayWrites(tr *tracer, ws []write, snap string, sharded bool, threshold int) (*writeReplay, error) {
	ix, err := openMapped(snap, sharded)
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	out := &writeReplay{}
	var ins, del []time.Duration
	for i, w := range ws {
		rid := "write-" + strconv.Itoa(i)
		t0 := time.Now()
		ok := true
		if w.del {
			ok = ix.Delete(w.p, w.id)
		} else {
			ok = ix.Insert(w.p, w.id) == nil
		}
		t1 := time.Now()
		if !ok {
			out.wrong++
		}
		if w.del {
			tr.add("gnn.delete", rid, 0, t0, t1)
			del = append(del, t1.Sub(t0))
		} else {
			tr.add("gnn.insert", rid, 0, t0, t1)
			ins = append(ins, t1.Sub(t0))
		}
		if st := ix.Stats(); st.Delta+st.Tombstones >= threshold {
			t0 = time.Now()
			err := ix.Compact()
			tr.add("gnn.compact", rid, 0, t0, time.Now())
			if err != nil {
				return nil, err
			}
			out.compactions++
		}
	}
	out.insert, out.delete = durations(ins, time.Microsecond), durations(del, time.Microsecond)
	return out, nil
}

// openMapped opens a snapshot zero-copy, plain or sharded.
func openMapped(path string, sharded bool) (index, error) {
	if sharded {
		return gnn.OpenShardedSnapshotMapped(path)
	}
	return gnn.OpenSnapshotMapped(path)
}
