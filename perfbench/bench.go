package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gnn"
	"gnn/internal/server"
)

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string
	work     string
	commit   string
}

// warm is the unrecorded lead-in of every load pass: the daemon faults
// in the snapshot pages the pool touches and its heap reaches steady
// state before timing starts.
const warm = time.Second

// replayReps is how often the in-process replay walks the pool.
const replayReps = 3

// setups is how often a run builds the index, writes the snapshot and
// starts the daemon; setup_s is the median, so one slow set-up does not
// move it.
const setups = 3

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as BENCHMARK.json lists
// them.
var endToEnd = []metricDef{
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"qps", "1/s"},
	{"rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run, as BENCHMARK.json lists
// them. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"http.self_us_p50", "us"},
	{"server.handler_us_p50", "us"},
	{"server.self_us_p50", "us"},
	{"server.decode_us_p50", "us"},
	{"server.encode_us_p50", "us"},
	{"server.admission_us_p99", "us"},
	{"server.rejected_share", "share"},
	{"server.cpu_ms_per_op", "ms"},
	{"server.gc_pause_p99_us", "us"},
	{"gnn.query_us_p50", "us"},
	{"gnn.explain_us_p50", "us"},
	{"gnn.allocs_per_query", "count"},
	{"gnn.overlay_us_p50", "us"},
	{"gnn.insert_us_p50", "us"},
	{"gnn.insert_us_p99", "us"},
	{"gnn.delete_us_p50", "us"},
	{"gnn.delta_max", "count"},
	{"gnn.tombstones_max", "count"},
	{"gnn.compactions", "count"},
	{"gnn.compaction_s_mean", "s"},
	{"shard.scatter_us_max_p50", "us"},
	{"shard.merge_us_p50", "us"},
	{"shard.self_us_p50", "us"},
	{"shard.na_per_query", "count"},
	{"core.kernel_us_p50", "us"},
	{"core.na_per_query", "count"},
	{"core.exact_distances_per_query", "count"},
	{"core.results_per_exact_distance", "ratio"},
	{"core.kernel_us_p50.mbm_sum", "us"},
	{"core.kernel_us_p50.mbm_max", "us"},
	{"core.kernel_us_p50.spm_sum", "us"},
	{"core.kernel_us_p50.mqm_sum", "us"},
	{"core.na_per_query.mbm_sum", "count"},
	{"core.na_per_query.mbm_max", "count"},
	{"core.na_per_query.spm_sum", "count"},
	{"core.na_per_query.mqm_sum", "count"},
	{"setup.build_s", "s"},
	{"setup.snapshot_write_s", "s"},
	{"setup.ready_s", "s"},
	{"snapshot.bytes", "bytes"},
	{"snapshot.rotation_bytes", "bytes"},
	{"loadgen.late_ms_p99", "ms"},
	{"trace.overhead_share", "share"},
	{"write_p50_ms", "ms"},
	{"write_p90_ms", "ms"},
	{"writes_per_s", "1/s"},
}

// runState is one run of one workload.
type runState struct {
	c       config
	s       spec
	in      *inputs
	procs   int
	clients int
	dir     string
	tr      *tracer
	d       *daemon
	snap    string // the served snapshot
	flags   []string
	w       *writer
	next    atomic.Int64 // pool cursor shared by all clients and passes
	want    [][]gnn.Result

	// failed counts refused or failed requests, wrong the answers that
	// differ from brute force (and unacknowledged writes).
	attempted, failed, wrong int
	// inexact counts answers whose distances matched brute force only
	// within the kernel's rounding tolerance.
	inexact int
	values  map[string]float64
}

func execute(ctx context.Context, c config) (*result, error) {
	s, err := specByName(c.workload)
	if err != nil {
		return nil, err
	}
	if c.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	r := &runState{c: c, s: s, procs: runtime.NumCPU(), tr: newTracer(), values: make(map[string]float64)}
	r.clients = s.queryClients
	if r.clients == 0 {
		r.clients = r.procs
	}
	nWrites := int(math.Round(float64(s.writeRate) * c.seconds))
	if r.in, err = makeInputs(s, c.seed, nWrites); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		return nil, err
	}
	if r.dir, err = os.MkdirTemp(c.work, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	r.snap = filepath.Join(r.dir, "served.snap")
	if s.compactThreshold > 0 {
		r.flags = []string{"-compact-threshold", strconv.Itoa(s.compactThreshold)}
	}

	ix, err := r.setup(ctx)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r.d != nil {
			r.d.stop()
		}
	}()
	if s.writeRate == 0 {
		if r.want, err = bruteForce(ctx, ix, r.in.queries, s.k, r.procs); err != nil {
			return nil, err
		}
	}
	// The replay maps its own copy; the served file is the daemon's (its
	// compactor rotates it).
	replaySnap := filepath.Join(r.dir, "replay.snap")
	if c.trace {
		if err := ix.WriteSnapshotFile(replaySnap); err != nil {
			return nil, err
		}
	}
	ix = nil

	window := time.Duration(c.seconds * float64(time.Second))
	if s.writeRate > 0 {
		r.w = newWriter(ctx, r.d.url, r.snap, r.in.writes, s.writeRate)
	}
	var a, b *passOut
	if !c.trace {
		if a, err = r.pass(ctx, false, window, 0, nWrites); err != nil {
			return nil, err
		}
	} else {
		// Two half-length passes: untraced, then traced, over the same
		// load; the write log continues from one into the other.
		if a, err = r.pass(ctx, false, window/2, 0, nWrites/2); err != nil {
			return nil, err
		}
		if b, err = r.pass(ctx, true, window/2, nWrites/2, nWrites); err != nil {
			return nil, err
		}
		for _, rp := range b.replies {
			t0 := b.opened.Add(rp.start)
			r.tr.add("http.client", rp.rid, 0, t0, t0.Add(rp.dur))
		}
	}
	if r.w != nil {
		if err := r.w.quiesce(ctx, s.compactThreshold); err != nil {
			return nil, err
		}
		if err := r.checkLive(ctx); err != nil {
			return nil, err
		}
	}

	var rr *readReplay
	var wr *writeReplay
	if c.trace {
		want := r.want
		if want == nil {
			// The write workload's pool answers against the base data, as
			// the replay's fresh open of the snapshot has it.
			if want, err = r.baseAnswers(ctx, replaySnap); err != nil {
				return nil, err
			}
		}
		if rr, err = replayReads(ctx, r.tr, s, r.in.queries, want, replaySnap, replayReps); err != nil {
			return nil, err
		}
		// Handler, explain and query sweeps, plus the counting sweep.
		r.attempted += len(r.in.queries) * (3*replayReps + 1)
		r.wrong += rr.wrong
		if s.writeRate > 0 {
			if wr, err = replayWrites(r.tr, r.in.writes, replaySnap, s.sharded, s.compactThreshold); err != nil {
				return nil, err
			}
			r.attempted += len(r.in.writes)
			r.wrong += wr.wrong
		}
		if err := r.tr.write(filepath.Join(c.work, "spans-"+s.name+".jsonl")); err != nil {
			return nil, err
		}
	}

	ru, err := r.d.stop()
	r.d = nil
	if err != nil {
		return nil, err
	}
	r.values["rss_mb"] = float64(ru.Maxrss) / 1024
	defs := endToEnd
	if c.trace {
		defs = perLayer
		r.perLayer(a, b, rr, wr)
	} else {
		r.endToEnd(a)
	}
	r.printReports(a)
	if rr != nil && s.sharded {
		fmt.Printf("report na_per_query_parallel_scatter %.4f (as served; varies with scheduling)\n", rr.naServed)
	}

	res := &result{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed + r.wrong, Metrics: make(map[string]metric)}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// setup builds the index, writes the snapshot and starts the daemon,
// setups times, keeping the last daemon. setup_s and the setup.*
// metrics are medians over the repetitions.
func (r *runState) setup(ctx context.Context) (index, error) {
	var build, write, ready, total []time.Duration
	var ix index
	for i := 0; i < setups; i++ {
		if r.d != nil {
			if _, err := r.d.stop(); err != nil {
				return nil, err
			}
			r.d = nil
		}
		// Every build starts from the same heap: none of the previous
		// index left to collect.
		ix = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if r.s.sharded {
			ix, err = gnn.BuildShardedIndex(r.in.points, nil, r.procs, gnn.IndexConfig{})
		} else {
			ix, err = gnn.BuildIndex(r.in.points, nil, gnn.IndexConfig{})
		}
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := ix.WriteSnapshotFile(r.snap); err != nil {
			return nil, err
		}
		t2 := time.Now()
		d, readyIn, err := startDaemon(ctx, r.c.bin, r.snap, filepath.Join(r.dir, "gnnserve.log"), r.procs, r.flags)
		if err != nil {
			return nil, err
		}
		r.d = d
		t3 := t2.Add(readyIn)
		root := r.tr.add("setup", "setup-"+strconv.Itoa(i), 0, t0, t3)
		r.tr.add("setup.build", "setup-"+strconv.Itoa(i), root, t0, t1)
		r.tr.add("setup.snapshot_write", "setup-"+strconv.Itoa(i), root, t1, t2)
		r.tr.add("setup.ready", "setup-"+strconv.Itoa(i), root, t2, t3)
		build, write, ready = append(build, t1.Sub(t0)), append(write, t2.Sub(t1)), append(ready, readyIn)
		total = append(total, t3.Sub(t0))
	}
	sec := time.Second
	r.values["setup_s"] = durations(total, sec).quantile(0.5)
	r.values["setup.build_s"] = durations(build, sec).quantile(0.5)
	r.values["setup.snapshot_write_s"] = durations(write, sec).quantile(0.5)
	r.values["setup.ready_s"] = durations(ready, sec).quantile(0.5)
	fi, err := os.Stat(r.snap)
	if err != nil {
		return nil, err
	}
	r.values["snapshot.bytes"] = float64(fi.Size())
	return ix, nil
}

// passOut is one load pass as the clients saw it.
type passOut struct {
	opened  time.Time // the window's start
	window  time.Duration
	replies []reply
	writes  []sent
	cpu     time.Duration // daemon CPU from the window's start to the last answer
	steal   float64       // share of the machine's CPU time the hypervisor gave other tenants meanwhile
	// sliceSteal is that share in each slice of the window.
	sliceSteal []float64
	stats      *server.StatsResponse
}

// pass runs the closed-loop query clients (and the writer, sending
// writes from..to-1) for warm+window.
func (r *runState) pass(ctx context.Context, traced bool, window time.Duration, from, to int) (*passOut, error) {
	start := time.Now()
	out := &passOut{opened: start.Add(warm), window: window}
	// At the window's start and at each slice boundary: the machine's
	// steal counters, and the daemon's CPU at the start.
	n := max(int(window/slice), 1)
	steal, total := make([]uint64, n+1), make([]uint64, n+1)
	var cpu0 time.Duration
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for i := 0; i <= n; i++ {
			time.Sleep(time.Until(start.Add(warm + time.Duration(i)*slice)))
			if i == 0 {
				cpu0, _ = r.d.cpu()
			}
			steal[i], total[i] = machineSteal()
		}
	}()
	var wg sync.WaitGroup
	if r.w != nil {
		r.w.loop.start = start.Add(warm)
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.writes = r.w.loop.run(from, to, func(i int) bool { return r.w.send(ctx, i) })
		}()
	}
	out.replies = closedLoop(ctx, r.d.url, r.in.queries, r.clients, traced, start, warm, window, &r.next)
	wg.Wait()
	cpu1, err := r.d.cpu()
	if err != nil {
		return nil, err
	}
	sampler.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out.cpu = cpu1 - cpu0
	out.steal = ratio(float64(steal[n]-steal[0]), float64(total[n]-total[0]))
	out.sliceSteal = make([]float64, n)
	for i := range out.sliceSteal {
		out.sliceSteal[i] = ratio(float64(steal[i+1]-steal[i]), float64(total[i+1]-total[i]))
	}
	sc := newConn(r.d.url)
	out.stats, err = getStats(ctx, sc)
	sc.close()
	if err != nil {
		return nil, err
	}

	// Check every answer.
	r.attempted += len(out.replies) + len(out.writes)
	for _, rp := range out.replies {
		switch {
		case rp.status != http.StatusOK:
			r.failed++
		case r.want != nil:
			inexact, err := checkBody(rp.body, r.want[rp.q], r.in.queries[rp.q].op.rtol())
			if err != nil {
				r.wrong++
				if r.wrong == 1 {
					fmt.Fprintf(os.Stderr, "perfbench: wrong answer to pool query %d: %v\n", rp.q, err)
				}
			} else if inexact {
				r.inexact++
			}
		default:
			// Under writes the answer moves; it must still be well formed.
			var resp server.QueryResponse
			if json.Unmarshal(rp.body, &resp) != nil || len(resp.Results) != r.s.k {
				r.wrong++
			}
		}
	}
	for _, w := range out.writes {
		if !w.ok {
			r.wrong++
		}
	}
	return out, nil
}

// checkLive checks a sample of the pool against brute force over the
// live set the write log leaves, once the writer has quiesced.
func (r *runState) checkLive(ctx context.Context) error {
	pts, ids := liveSet(r.in.points, r.in.writes)
	ix, err := gnn.BuildIndex(pts, ids, gnn.IndexConfig{})
	if err != nil {
		return err
	}
	sample := r.in.queries[:r.s.checkSample]
	want, err := bruteForce(ctx, ix, sample, r.s.k, r.procs)
	if err != nil {
		return err
	}
	hc := newConn(r.d.url)
	defer hc.close()
	for i, q := range sample {
		r.attempted++
		status, body, err := hc.post(ctx, "/v1/groupnn", q.body, "")
		if err != nil || status != http.StatusOK {
			r.failed++
			continue
		}
		if _, err := checkBody(body, want[i], q.op.rtol()); err != nil {
			r.wrong++
			fmt.Fprintf(os.Stderr, "perfbench: after writes, pool query %d: %v\n", i, err)
		}
	}
	return nil
}

// baseAnswers is the brute-force answer of every pool query over the
// snapshot file.
func (r *runState) baseAnswers(ctx context.Context, snap string) ([][]gnn.Result, error) {
	ix, err := openMapped(snap, r.s.sharded)
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	return bruteForce(ctx, ix, r.in.queries, r.s.k, r.procs)
}

// okLatencies are the client-observed latencies of the answered queries.
func okLatencies(rs []reply) []time.Duration {
	var out []time.Duration
	for _, rp := range rs {
		if rp.status == http.StatusOK {
			out = append(out, rp.dur)
		}
	}
	return out
}

// slice is the width of the slices a pass is cut into for the
// end-to-end figures: short enough to fall between the bursts of CPU
// steal, which come and go within a second. At 15-20% steal, 250-ms
// slices left hardly a calm one, and the figures followed the steal.
const slice = 100 * time.Millisecond

// stealFloor is the CPU steal share of a slice that counts as none; on a
// 2-CPU machine it is less than one clock tick of a slice.
const stealFloor = 0.01

// sliced are a pass's latency and throughput figures. For each slice of
// the window: the p50 and p90 latency of the answered queries sent in it,
// and the answers completed in it per second. Each figure is the median
// over the window's calm slices: the least-stolen third of them, plus
// every slice whose CPU steal is at most stealFloor. On a shared machine,
// CPU the hypervisor gives another tenant slows the daemon and the load
// generator at once, in bursts of tens of milliseconds; the slices are
// chosen by that outside signal, never by the figures themselves, and
// with no steal every slice counts. Taking the median over slices also
// keeps a periodic stall covering a few slices, such as a compaction,
// out of the figures.
type sliced struct {
	p50, p90, qps float64
	kept          int // slices the figures are taken over
}

func sliceFigures(rs []reply, window time.Duration, steal []float64) sliced {
	n := max(int(window/slice), 1)
	lat := make([][]time.Duration, n)
	done := make([]float64, n)
	for _, rp := range rs {
		if rp.status != http.StatusOK {
			continue
		}
		if i := int(rp.start / slice); i < n {
			lat[i] = append(lat[i], rp.dur)
		}
		if i := int((rp.start + rp.dur) / slice); i < n {
			done[i]++
		}
	}
	limit := math.Inf(1)
	if len(steal) == n {
		limit = max(newDist(steal).quantile(1.0/3), stealFloor)
	}
	var p50, p90, qps []float64
	for i := range lat {
		if len(steal) == n && steal[i] > limit {
			continue
		}
		d := durations(lat[i], time.Millisecond)
		p50, p90 = append(p50, d.quantile(0.5)), append(p90, d.quantile(0.9))
		qps = append(qps, done[i]/slice.Seconds())
	}
	return sliced{
		p50:  newDist(p50).quantile(0.5),
		p90:  newDist(p90).quantile(0.5),
		qps:  newDist(qps).quantile(0.5),
		kept: len(qps),
	}
}

// endToEnd computes the untraced pass's metrics.
func (r *runState) endToEnd(a *passOut) {
	f := sliceFigures(a.replies, a.window, a.sliceSteal)
	r.values["query_p50_ms"] = f.p50
	r.values["query_p90_ms"] = f.p90
	r.values["qps"] = f.qps
}

// explained decodes the explain reports of a traced pass's answers.
func explained(rs []reply) []*gnn.QueryExplain {
	var out []*gnn.QueryExplain
	for _, rp := range rs {
		if rp.status != http.StatusOK {
			continue
		}
		var resp server.QueryResponse
		if json.Unmarshal(rp.body, &resp) == nil && resp.Explain != nil {
			out = append(out, resp.Explain)
		}
	}
	return out
}

// perLayer computes the traced run's metrics from the untraced pass a,
// the traced pass b and the in-process replays.
func (r *runState) perLayer(a, b *passOut, rr *readReplay, wr *writeReplay) {
	v := r.values
	us := time.Microsecond

	// server: counters of the untraced pass.
	rejected, ops := 0, 0
	for _, rp := range a.replies {
		if rp.status == http.StatusTooManyRequests {
			rejected++
		}
		if rp.status == http.StatusOK {
			ops++
		}
	}
	for _, w := range a.writes {
		if w.ok {
			ops++
		}
	}
	v["server.rejected_share"] = ratio(float64(rejected), float64(len(a.replies)+len(a.writes)))
	v["server.cpu_ms_per_op"] = ratio(float64(a.cpu)/float64(time.Millisecond), float64(ops))
	v["server.gc_pause_p99_us"] = a.stats.Runtime.GCPauseP99US

	// Stages the program reports in each traced answer's explain.
	var admission, kernel, scatterMax, merge, shardSelf, overlay []float64
	kernelByOp := make(map[op][]float64)
	opByName := make(map[string]op)
	for _, o := range r.s.ops {
		opByName[o.algo+"/"+o.agg] = o
	}
	for _, ex := range explained(b.replies) {
		o := opByName[algoWire(ex.Algorithm)+"/"+ex.Aggregate]
		adm, maxScatter, ov := 0.0, 0.0, 0.0
		for _, st := range ex.Stages {
			d := float64(st.DurationUS)
			switch {
			case st.Name == "admission":
				adm = d
			case st.Name == "scatter":
				kernel = append(kernel, d)
				kernelByOp[o] = append(kernelByOp[o], d)
				maxScatter = max(maxScatter, d)
			case st.Name == "query" || st.Name == "base":
				kernel = append(kernel, d)
				kernelByOp[o] = append(kernelByOp[o], d)
			case st.Name == "merge" && ex.Shards > 0:
				merge = append(merge, d)
			case ex.Overlay && (st.Name == "delta" || st.Name == "pending" || st.Name == "merge" || st.Name == "overlay-merge"):
				ov += d
			}
		}
		admission = append(admission, adm)
		overlay = append(overlay, ov)
		if ex.Shards > 0 {
			scatterMax = append(scatterMax, maxScatter)
			shardSelf = append(shardSelf, float64(ex.TotalUS)-maxScatter)
		}
	}
	v["server.admission_us_p99"] = newDist(admission).quantile(0.99)
	v["core.kernel_us_p50"] = newDist(kernel).quantile(0.5)
	for o, ks := range kernelByOp {
		v["core.kernel_us_p50."+o.String()] = newDist(ks).quantile(0.5)
	}
	v["shard.scatter_us_max_p50"] = newDist(scatterMax).quantile(0.5)
	v["shard.merge_us_p50"] = newDist(merge).quantile(0.5)
	v["shard.self_us_p50"] = newDist(shardSelf).quantile(0.5)
	v["gnn.overlay_us_p50"] = newDist(overlay).quantile(0.5)
	v["trace.overhead_share"] = ratio(sliceFigures(b.replies, b.window, b.sliceSteal).p50,
		sliceFigures(a.replies, a.window, a.sliceSteal).p50) - 1

	// http: each traced client span minus the in-process handler time of
	// the same body.
	var httpSelf []time.Duration
	for _, rp := range b.replies {
		if rp.status == http.StatusOK {
			httpSelf = append(httpSelf, nestedSelf(rp.dur, rr.handlerByQuery[rp.q]))
		}
	}
	v["http.self_us_p50"] = durations(httpSelf, us).quantile(0.5)

	// Serial in-process replay.
	v["server.handler_us_p50"] = rr.handler.quantile(0.5)
	v["server.self_us_p50"] = rr.handlerSelf.quantile(0.5)
	v["server.decode_us_p50"] = rr.decode.quantile(0.5)
	v["server.encode_us_p50"] = rr.encode.quantile(0.5)
	v["gnn.query_us_p50"] = rr.query.quantile(0.5)
	v["gnn.explain_us_p50"] = rr.explain.quantile(0.5)
	v["gnn.allocs_per_query"] = rr.allocsPerQuery
	v["core.na_per_query"] = rr.na
	v["core.exact_distances_per_query"] = rr.exactDistances
	v["core.results_per_exact_distance"] = ratio(rr.results, rr.exactDistances)
	if r.s.sharded {
		v["shard.na_per_query"] = rr.na
	}
	for o, na := range rr.naByOp {
		v["core.na_per_query."+o.String()] = na
	}

	// The write path.
	if r.w != nil {
		t := r.w.track
		v["gnn.delta_max"] = float64(t.deltaMax)
		v["gnn.tombstones_max"] = float64(t.tombsMax)
		v["gnn.compactions"] = float64(t.gen)
		v["gnn.compaction_s_mean"] = ratio(t.compactTime.Seconds(), float64(t.cycles))
		v["snapshot.rotation_bytes"] = float64(t.rotationBytes)
		v["gnn.insert_us_p50"] = wr.insert.quantile(0.5)
		v["gnn.insert_us_p99"] = wr.insert.quantile(0.99)
		v["gnn.delete_us_p50"] = wr.delete.quantile(0.5)
		ws := writeDists(a.writes)
		v["write_p50_ms"] = ws.lat.quantile(0.5)
		v["write_p90_ms"] = ws.lat.quantile(0.9)
		v["writes_per_s"] = ws.rate
		v["loadgen.late_ms_p99"] = ws.late.quantile(0.99)
	}
}

// algoWire maps an explain's algorithm name back to the wire name.
func algoWire(name string) string {
	switch name {
	case "MQM":
		return "mqm"
	case "SPM":
		return "spm"
	default:
		return "mbm"
	}
}

// writeStats summarises an open-loop write pass.
type writeStats struct {
	lat, late dist    // ms
	rate      float64 // acknowledged writes per second of schedule
}

func writeDists(ws []sent) writeStats {
	var lat, late []time.Duration
	var last time.Duration
	for _, w := range ws {
		if w.ok {
			lat = append(lat, w.lat)
		}
		late = append(late, w.late)
	}
	if n := len(ws); n > 0 {
		// The last write's completion, measured from the first due time.
		last = ws[n-1].due + ws[n-1].lat
	}
	return writeStats{
		lat:  durations(lat, time.Millisecond),
		late: durations(late, time.Millisecond),
		rate: ratio(float64(len(lat)), last.Seconds()),
	}
}

// printReports prints the report-only lines: tail percentiles with
// their sample counts, the error share, per-type latency and the
// provenance. They precede the result line and are not gated.
func (r *runState) printReports(a *passOut) {
	tail := func(name string, d dist) {
		for _, p := range []struct {
			label string
			q     float64
		}{{"p99", 0.99}, {"p999", 0.999}} {
			val, beyond, ok := d.tail(p.q)
			note := ""
			if !ok {
				note = " (fewer than 10 samples beyond)"
			}
			fmt.Printf("report %s_%s_ms %.4f n=%d beyond=%d%s\n", name, p.label, val, len(d), beyond, note)
		}
	}
	lat := durations(okLatencies(a.replies), time.Millisecond)
	fmt.Printf("report query_pooled_p50_ms %.4f query_pooled_p90_ms %.4f n=%d\n", lat.quantile(0.5), lat.quantile(0.9), len(lat))
	tail("query", lat)
	if len(a.writes) > 0 {
		ws := writeDists(a.writes)
		fmt.Printf("report write_p50_ms %.4f n=%d\n", ws.lat.quantile(0.5), len(ws.lat))
		fmt.Printf("report write_p90_ms %.4f n=%d\n", ws.lat.quantile(0.9), len(ws.lat))
		tail("write", ws.lat)
		fmt.Printf("report writes_per_s %.2f offered=%d\n", ws.rate, r.s.writeRate)
		t := r.w.track
		fmt.Printf("report overlay compactions=%d delta_max=%d tombstones_max=%d final_delta=%d final_tombstones=%d threshold=%d\n",
			t.gen, t.deltaMax, t.tombsMax, t.finalDelta, t.finalTombs, r.s.compactThreshold)
	}
	if len(r.s.ops) > 1 {
		byOp := make(map[op][]time.Duration)
		for _, rp := range a.replies {
			if rp.status == http.StatusOK {
				o := r.in.queries[rp.q].op
				byOp[o] = append(byOp[o], rp.dur)
			}
		}
		for _, o := range r.s.ops {
			d := durations(byOp[o], time.Millisecond)
			v99, beyond, _ := d.tail(0.99)
			fmt.Printf("report query_ms.%s p50=%.4f p90=%.4f p99=%.4f n=%d beyond=%d\n",
				o, d.quantile(0.5), d.quantile(0.9), v99, len(d), beyond)
		}
	}
	fmt.Printf("report cpu_steal_share %.4f (CPU time the hypervisor gave other tenants during the window) slices_kept=%d/%d\n",
		a.steal, sliceFigures(a.replies, a.window, a.sliceSteal).kept, len(a.sliceSteal))
	fmt.Printf("report distances_within_rounding_share %g answers=%d (MQM reassociates the sum; IDs identical)\n",
		ratio(float64(r.inexact), float64(len(a.replies))), r.inexact)
	fmt.Printf("report error_share %g failed=%d wrong=%d attempted=%d\n",
		ratio(float64(r.failed+r.wrong), float64(r.attempted)), r.failed+r.wrong, r.wrong, r.attempted)
	prov, _ := json.Marshal(r.provenance())
	fmt.Printf("provenance %s\n", prov)
}

// provenance records what was measured, where and how.
func (r *runState) provenance() map[string]any {
	flags := append([]string{"-snapshot", "<served.snap>", "-addr", "127.0.0.1:<port>"}, r.flags...)
	return map[string]any{
		"workload":            r.s.name,
		"seed":                r.c.seed,
		"seconds":             r.c.seconds,
		"trace":               r.c.trace,
		"nproc":               r.procs,
		"gomaxprocs_bench":    runtime.GOMAXPROCS(0),
		"gomaxprocs_gnnserve": r.procs,
		"go_version":          runtime.Version(),
		"commit":              r.c.commit,
		"dataset":             r.s.dataset,
		"points":              len(r.in.points),
		"snapshot_bytes":      int64(r.values["snapshot.bytes"]),
		"gnnserve_flags":      flags,
		"query_clients":       r.clients,
		"pool":                len(r.in.queries),
		"group_size":          r.s.groupSize,
		"area":                r.s.area,
		"k":                   r.s.k,
		"ops":                 opNames(r.s.ops),
		"write_rate":          r.s.writeRate,
		"writes":              len(r.in.writes),
		"setups":              setups,
	}
}

func opNames(ops []op) []string {
	out := make([]string, len(ops))
	for i, o := range ops {
		out[i] = o.String()
	}
	return out
}
