package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gnn/internal/server"
)

// getStats fetches /v1/stats.
func getStats(ctx context.Context, c *conn) (*server.StatsResponse, error) {
	status, b, err := c.do(ctx, "GET", "/v1/stats", nil, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats: status %d", status)
	}
	var st server.StatsResponse
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	return &st, nil
}

// reply is one query request as the client saw it.
type reply struct {
	q      int           // pool index
	rid    string        // X-Request-ID the benchmark set
	start  time.Duration // send time, from the pass start
	dur    time.Duration // send to last response byte
	status int           // 0 when the transport failed
	body   []byte
}

// closedLoop runs clients that each send a pool query, wait for the
// answer, and send the next, walking the pool round-robin. Requests sent
// during the first warm of the pass are not recorded; no request is sent
// after warm+window. With traced set, requests carry "trace": true and a
// benchmark-chosen X-Request-ID.
func closedLoop(ctx context.Context, url string, pool []query, clients int, traced bool, start time.Time, warm, window time.Duration, next *atomic.Int64) []reply {
	var mu sync.Mutex
	var all []reply
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newConn(url)
			defer hc.close()
			var mine []reply
			for seq := 0; ctx.Err() == nil; seq++ {
				sent := time.Since(start)
				if sent >= warm+window {
					break
				}
				i := int(next.Add(1)-1) % len(pool)
				body, rid := pool[i].body, ""
				if traced {
					body, rid = pool[i].traced, "pb-"+strconv.Itoa(c)+"-"+strconv.Itoa(seq)
				}
				status, b, err := hc.post(ctx, "/v1/groupnn", body, rid)
				dur := time.Since(start) - sent
				if err != nil {
					status = 0
				}
				if sent >= warm {
					mine = append(mine, reply{q: i, rid: rid, start: sent - warm, dur: dur, status: status, body: b})
				}
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// openLoop schedules write i at start + i*period whatever the state of
// earlier writes, and times each from that due time.
type openLoop struct {
	start  time.Time
	period time.Duration
	now    func() time.Time
	sleep  func(time.Duration)
	// idle, if set, is called when the loop is ahead of schedule, with
	// the next due time; it may use the connection until then.
	idle func(due time.Time)
}

// sent is one open-loop write as the generator saw it.
type sent struct {
	due  time.Duration // due time, from the loop's start
	lat  time.Duration // due time to response
	late time.Duration // due time to send
	ok   bool
}

// run sends writes from..to-1 in order, write i due at (i-from)*period
// after the start and sent no earlier.
func (o openLoop) run(from, to int, send func(i int) bool) []sent {
	out := make([]sent, 0, to-from)
	for i := from; i < to; i++ {
		due := o.start.Add(time.Duration(i-from) * o.period)
		if o.now().Before(due) && o.idle != nil {
			o.idle(due)
		}
		if wait := due.Sub(o.now()); wait > 0 {
			o.sleep(wait)
		}
		t := o.now()
		ok := send(i)
		out = append(out, sent{due: due.Sub(o.start), lat: o.now().Sub(due), late: t.Sub(due), ok: ok})
	}
	return out
}

// overlayTrack is the write path's state as /v1/stats and the write
// responses reported it.
type overlayTrack struct {
	deltaMax, tombsMax int
	gen                uint64        // last compaction generation seen
	cycles             int           // compactions observed by sampling
	compactTime        time.Duration // summed over observed compactions
	rotationBytes      int64         // snapshot bytes the observed rotations wrote
	// finalDelta and finalTombs are the overlay left once the writer has
	// quiesced.
	finalDelta, finalTombs int
}

// writer is the open-loop write client of a write workload.
type writer struct {
	snapPath string // the served file, rotated by each compaction
	hc       *conn
	log      []write
	loop     openLoop
	track    overlayTrack
	lastPoll time.Time
}

// statsEvery is how often the writer samples /v1/stats while it is ahead
// of schedule: often enough to see every compaction cycle (each takes
// several hundred milliseconds) without competing with the load.
const statsEvery = 200 * time.Millisecond

// newWriter returns a writer for log at rate writes/s; each pass sets
// the loop's start.
func newWriter(ctx context.Context, url, snapPath string, log []write, rate int) *writer {
	w := &writer{snapPath: snapPath, hc: newConn(url), log: log}
	w.loop = openLoop{
		period: time.Second / time.Duration(rate),
		now:    time.Now, sleep: time.Sleep,
		idle: func(due time.Time) {
			if time.Until(due) > 2*time.Millisecond && time.Since(w.lastPoll) >= statsEvery {
				// A failed sample is made up by the next one; quiesce
				// reports a daemon that stops answering.
				_, _ = w.poll(ctx)
			}
		},
	}
	return w
}

// poll samples /v1/stats and accounts any compaction finished since the
// previous sample.
func (w *writer) poll(ctx context.Context) (*server.StatsResponse, error) {
	w.lastPoll = time.Now()
	st, err := getStats(ctx, w.hc)
	if err != nil {
		return nil, err
	}
	w.track.observe(st.Overlay.Delta, st.Overlay.Tombstones)
	if g := st.Overlay.CompactionGen; g > w.track.gen {
		// Cycles finish seconds apart, so a sample sees each one; the
		// duration is that of the latest.
		n := int(g - w.track.gen)
		w.track.gen = g
		w.track.cycles += n
		w.track.compactTime += time.Duration(n) * time.Duration(st.Overlay.LastCompactionUS) * time.Microsecond
		if fi, err := os.Stat(w.snapPath); err == nil {
			w.track.rotationBytes += int64(n) * fi.Size()
		}
	}
	return st, nil
}

func (t *overlayTrack) observe(delta, tombs int) {
	t.deltaMax = max(t.deltaMax, delta)
	t.tombsMax = max(t.tombsMax, tombs)
}

// send issues write i and reports whether it was acknowledged as
// applied.
func (w *writer) send(ctx context.Context, i int) bool {
	wr := w.log[i]
	path := "/v1/insert"
	if wr.del {
		path = "/v1/delete"
	}
	status, b, err := w.hc.post(ctx, path, wr.body, "")
	if err != nil || status != http.StatusOK {
		return false
	}
	var mr server.MutateResponse
	if json.Unmarshal(b, &mr) != nil || (wr.del && !mr.Deleted) {
		return false
	}
	w.track.observe(mr.Delta, mr.Tombstones)
	return true
}

// quiesce waits until the overlay is below the compaction threshold (no
// fold is running or due) and records the final compaction count.
func (w *writer) quiesce(ctx context.Context, threshold int) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := w.poll(ctx)
		if err != nil {
			return err
		}
		if st.Overlay.LastCompactionErr != "" {
			return fmt.Errorf("compaction failed: %s", st.Overlay.LastCompactionErr)
		}
		if st.Overlay.Delta+st.Overlay.Tombstones < threshold {
			w.track.finalDelta, w.track.finalTombs = st.Overlay.Delta, st.Overlay.Tombstones
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("overlay still %d entries after the writer stopped", st.Overlay.Delta+st.Overlay.Tombstones)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}
