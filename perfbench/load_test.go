package main

import (
	"testing"
	"time"
)

// fakeClock is a clock that moves only when the loop sleeps or a send
// takes time.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) sleep(d time.Duration)   { c.t = c.t.Add(d) }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ms := time.Millisecond
	c := &fakeClock{t: time.Unix(1000, 0)}
	idled := 0
	o := openLoop{
		start: c.t, period: 10 * ms, now: c.now, sleep: c.sleep,
		idle: func(time.Time) { idled++ },
	}
	// Write 1 stalls for 35 ms; the three after it are sent late and
	// carry the stall in their latency.
	cost := []time.Duration{1 * ms, 35 * ms, 1 * ms, 1 * ms, 1 * ms, 1 * ms}
	got := o.run(0, len(cost), func(i int) bool {
		c.advance(cost[i])
		return true
	})
	want := []sent{
		{due: 0, lat: 1 * ms, late: 0, ok: true},
		{due: 10 * ms, lat: 35 * ms, late: 0, ok: true},
		{due: 20 * ms, lat: 26 * ms, late: 25 * ms, ok: true},
		{due: 30 * ms, lat: 17 * ms, late: 16 * ms, ok: true},
		{due: 40 * ms, lat: 8 * ms, late: 7 * ms, ok: true},
		{due: 50 * ms, lat: 1 * ms, late: 0, ok: true},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("write %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	// Ahead of schedule before writes 1 and 5 only.
	if idled != 2 {
		t.Errorf("idle called %d times, want 2", idled)
	}
	ws := writeDists(got)
	if ws.late.quantile(1) != 25 || ws.lat.quantile(0.5) != 8 {
		t.Errorf("writeDists: late max %v, lat p50 %v; want 25 and 8", ws.late.quantile(1), ws.lat.quantile(0.5))
	}
	// Six writes acknowledged by 51 ms after the first was due.
	if r := ws.rate; r < 117 || r > 118 {
		t.Errorf("rate = %v, want 6/0.051", r)
	}
}

func TestOpenLoopSecondPassRestartsSchedule(t *testing.T) {
	c := &fakeClock{t: time.Unix(1000, 0)}
	o := openLoop{start: c.t, period: time.Millisecond, now: c.now, sleep: c.sleep}
	got := o.run(4, 6, func(int) bool { return false })
	if len(got) != 2 || got[0].due != 0 || got[1].due != time.Millisecond || got[1].ok {
		t.Errorf("run(4, 6) = %+v, want writes due at 0 and 1ms, not ok", got)
	}
}
