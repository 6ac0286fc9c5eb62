package sim

import (
	"math/rand"
	"testing"
	"time"

	"newswire/internal/vtime"
	"newswire/internal/wire"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.After(3*time.Second, func() { order = append(order, 3) })
	e.After(1*time.Second, func() { order = append(order, 1) })
	e.After(2*time.Second, func() { order = append(order, 2) })
	if n := e.RunUntilIdle(0); n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestEngineSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Second, func() { order = append(order, i) })
	}
	e.RunUntilIdle(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events out of insertion order: %v", order)
		}
	}
}

func TestEngineClockAdvancesToEventTime(t *testing.T) {
	e := NewEngine(1)
	var at time.Time
	e.After(5*time.Second, func() { at = e.Now() })
	e.RunUntilIdle(0)
	want := vtime.Epoch.Add(5 * time.Second)
	if !at.Equal(want) {
		t.Fatalf("event ran at %v, want %v", at, want)
	}
}

func TestEngineRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.After(1*time.Second, func() { ran++ })
	e.After(10*time.Second, func() { ran++ })
	n := e.RunFor(5 * time.Second)
	if n != 1 || ran != 1 {
		t.Fatalf("RunFor ran %d events (%d callbacks), want 1", n, ran)
	}
	if !e.Now().Equal(vtime.Epoch.Add(5 * time.Second)) {
		t.Fatalf("clock = %v, want epoch+5s", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineEventsCanScheduleEvents(t *testing.T) {
	e := NewEngine(1)
	hits := 0
	e.After(time.Second, func() {
		hits++
		e.After(time.Second, func() { hits++ })
	})
	e.RunFor(3 * time.Second)
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.After(-time.Hour, func() { ran = true })
	e.RunUntilIdle(0)
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
	if e.Now().Before(vtime.Epoch) {
		t.Fatal("clock went backwards")
	}
}

func TestEngineAtPastClamped(t *testing.T) {
	e := NewEngine(1)
	e.RunFor(time.Minute)
	ran := false
	e.At(vtime.Epoch, func() { ran = true })
	e.RunUntilIdle(0)
	if !ran {
		t.Fatal("past event never ran")
	}
}

func TestEngineEvery(t *testing.T) {
	e := NewEngine(1)
	count := 0
	ticker := e.Every(time.Second, 0, func() { count++ })
	e.RunFor(5500 * time.Millisecond)
	if count != 5 {
		t.Fatalf("ticks = %d, want 5", count)
	}
	ticker.Stop()
	e.RunFor(10 * time.Second)
	if count != 5 {
		t.Fatalf("ticker fired after Stop: %d", count)
	}
}

func TestEngineEveryWithJitterStaysRoughlyPeriodic(t *testing.T) {
	e := NewEngine(42)
	count := 0
	e.Every(time.Second, 0.2, func() { count++ })
	e.RunFor(60 * time.Second)
	if count < 50 || count > 70 {
		t.Fatalf("jittered ticks over 60s = %d, want ~60", count)
	}
}

func TestEngineDeterministicAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		e := NewEngine(7)
		var fired []time.Duration
		e.Every(time.Second, 0.5, func() {
			fired = append(fired, e.Now().Sub(vtime.Epoch))
		})
		e.RunFor(10 * time.Second)
		return fired
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEngineRunUntilIdleCap(t *testing.T) {
	e := NewEngine(1)
	// Self-perpetuating event chain.
	var boom func()
	boom = func() { e.After(time.Millisecond, boom) }
	e.After(0, boom)
	n := e.RunUntilIdle(100)
	if n != 100 {
		t.Fatalf("cap not respected: ran %d", n)
	}
}

// TestEngineEventsAllocateNothing: once the free list holds spare shells,
// a message — its delivery and the send it answers with — and a ticker
// firing cost the engine no heap object.
func TestEngineEventsAllocateNothing(t *testing.T) {
	t.Run("send-deliver", func(t *testing.T) {
		e, n := newTestNet(t, LinkModel{LatencyMin: time.Millisecond, LatencyMax: 5 * time.Millisecond})
		var a, b *Endpoint
		a = n.Attach("a", func(m *wire.Message) { _ = a.Send("b", m) })
		b = n.Attach("b", func(m *wire.Message) { _ = b.Send("a", m) })
		if err := a.Send("b", gossipMsg()); err != nil {
			t.Fatal(err)
		}
		e.RunFor(time.Second)
		if got := testing.AllocsPerRun(100, func() { e.Step() }); got != 0 {
			t.Fatalf("a delivery and the send it answers with allocate %.1f objects, want 0", got)
		}
	})
	t.Run("ticker", func(t *testing.T) {
		// 30 s of warm-up grows the heap and the free list to their
		// steady size; a firing then reuses its shell and heap entry.
		e := NewEngine(1)
		fires := 0
		e.Every(100*time.Millisecond, 0, func() { fires++ })
		e.RunFor(30 * time.Second)
		if got := testing.AllocsPerRun(100, func() { e.Step() }); got != 0 {
			t.Fatalf("a ticker firing allocates %.1f objects, want 0", got)
		}
		if fires < 101 {
			t.Fatalf("ticker fired %d times, want one per step", fires)
		}
	})
}

// TestStoppedTickerNeverCancelsARecycledEvent pins the handle rule: a
// ticker lets go of its event when it fires, so stopping it after that
// shell went back to the free list, and on to a message in flight, cannot
// cancel the message.
func TestStoppedTickerNeverCancelsARecycledEvent(t *testing.T) {
	e, n := newTestNet(t, LinkModel{LatencyMin: 500 * time.Millisecond, LatencyMax: 500 * time.Millisecond})
	got := 0
	n.Attach("b", func(*wire.Message) { got++ })
	a := n.Attach("a", nil)
	ticks := 0
	tk := e.Every(time.Second, 0, func() { ticks++ })
	shell := tk.pending
	e.RunFor(time.Second) // the ticker fires; its shell goes back on the free list
	if err := a.Send("b", gossipMsg()); err != nil {
		t.Fatal(err)
	}
	if shell.net != n || shell.to != "b" {
		t.Fatal("the delivery did not reuse the ticker's fired shell; the test no longer covers reuse")
	}
	tk.Stop()
	e.RunFor(5 * time.Second)
	if got != 1 {
		t.Fatalf("%d deliveries after stopping the ticker, want 1", got)
	}
	if ticks != 1 {
		t.Fatalf("ticker fired %d times, want 1", ticks)
	}
}

// TestEngineMatchesReference is TestWheelMatchesReference one layer up,
// through recycled events: random After/At calls (negative delays and
// past times included), jittered tickers, Ticker.Stop (of another ticker,
// of the firing ticker from inside its own callback, of a ticker stopped
// long ago whose shells went on to other events) and sends over a lossy
// link run through the engine, while a plain list replays the same
// schedule with a twin of the engine's random source. Every firing must be
// the list's (time, seq) minimum, at that time, with the same number of
// events pending; a stale handle that cancelled a recycled shell, or a
// shell recycled while still queued, shows up as a missing or extra event.
func TestEngineMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		checkEngineAgainstOracle(t, seed)
	}
}

// oracleEvent is one scheduled firing as the oracle predicts it; id names
// the work (a timer, a ticker, a message).
type oracleEvent struct {
	at  time.Time
	seq uint64
	id  int
}

// engineOracle is the reference schedule: a list scanned for its (at, seq)
// minimum, with sequence numbers assigned in scheduling order as the
// engine assigns them, and the engine's random draws replayed on a twin.
type engineOracle struct {
	rng     *rand.Rand
	seq     uint64
	pending []oracleEvent
}

func (o *engineOracle) schedule(now, at time.Time, id int) {
	if at.Before(now) {
		at = now
	}
	o.seq++
	o.pending = append(o.pending, oracleEvent{at: at, seq: o.seq, id: id})
}

func (o *engineOracle) cancel(id int) {
	for i, ev := range o.pending {
		if ev.id == id {
			o.pending = append(o.pending[:i], o.pending[i+1:]...)
			return
		}
	}
}

func (o *engineOracle) pop() (oracleEvent, bool) {
	if len(o.pending) == 0 {
		return oracleEvent{}, false
	}
	m := 0
	for i, ev := range o.pending {
		if ev.at.Before(o.pending[m].at) || ev.at.Equal(o.pending[m].at) && ev.seq < o.pending[m].seq {
			m = i
		}
	}
	ev := o.pending[m]
	o.pending = append(o.pending[:m], o.pending[m+1:]...)
	return ev, true
}

func checkEngineAgainstOracle(t *testing.T, seed int64) {
	t.Helper()
	link := LinkModel{LatencyMin: time.Millisecond, LatencyMax: 400 * time.Millisecond, LossRate: 0.1}
	e := NewEngine(seed)
	n := NewNetwork(e, link)
	o := &engineOracle{rng: rand.New(rand.NewSource(seed))}
	drv := rand.New(rand.NewSource(seed + 1000)) // the test's own choices

	type tickerState struct {
		tk       *Ticker
		id       int
		interval time.Duration
		jitter   float64
		stopped  bool
	}
	var (
		tickers  []*tickerState
		live     int // tickers not stopped
		msgIDs   = map[*wire.Message]int{}
		nextID   int
		fired    int
		draining bool
		ops      func()
	)
	const firings = 20000

	// fire checks one firing against the oracle and, unless draining, lets
	// it schedule more work.
	fire := func(id int) {
		want, ok := o.pop()
		if !ok {
			t.Fatalf("seed %d firing %d: engine fired id %d, oracle has nothing pending", seed, fired, id)
		}
		if want.id != id || !e.Now().Equal(want.at) {
			t.Fatalf("seed %d firing %d: engine fired id %d at %v, oracle wants id %d at %v",
				seed, fired, id, e.Now().Sub(vtime.Epoch), want.id, want.at.Sub(vtime.Epoch))
		}
		if got := e.Pending(); got != len(o.pending) {
			t.Fatalf("seed %d firing %d: engine has %d pending, oracle %d", seed, fired, got, len(o.pending))
		}
		fired++
		if !draining {
			ops()
		}
	}
	var eps []*Endpoint
	for _, addr := range []string{"a", "b", "c", "d"} {
		eps = append(eps, n.Attach(addr, func(m *wire.Message) { fire(msgIDs[m]) }))
	}
	randomDelay := func() time.Duration {
		switch drv.Intn(10) {
		case 0:
			return 0
		case 1:
			return -time.Duration(drv.Int63n(int64(time.Second)))
		case 2:
			return 60*24*time.Hour + time.Duration(drv.Int63n(int64(20*24*time.Hour))) // overflow heap
		case 3, 4, 5:
			return time.Duration(drv.Int63n(int64(2 * time.Millisecond))) // level 0
		default:
			return time.Duration(drv.Int63n(int64(10 * time.Minute))) // upper levels
		}
	}
	after := func() {
		nextID++
		id, d := nextID, randomDelay()
		now := e.Now()
		if drv.Intn(2) == 0 {
			e.After(d, func() { fire(id) })
		} else {
			e.At(now.Add(d), func() { fire(id) })
		}
		o.schedule(now, now.Add(d), id)
	}
	send := func() {
		nextID++
		from, to := eps[drv.Intn(len(eps))], eps[drv.Intn(len(eps))]
		m := gossipMsg()
		msgIDs[m] = nextID
		if err := from.Send(to.Addr(), m); err != nil {
			t.Fatal(err)
		}
		// commitSend's draws: loss, then latency.
		if o.rng.Float64() < link.LossRate {
			return
		}
		lat := link.LatencyMin + time.Duration(o.rng.Int63n(int64(link.LatencyMax-link.LatencyMin)))
		o.schedule(e.Now(), e.Now().Add(lat), nextID)
	}
	// armOracle replays Ticker.arm: one jitter draw, the same clamp.
	armOracle := func(ts *tickerState) {
		d := ts.interval
		if ts.jitter > 0 {
			half := time.Duration(float64(ts.interval) * ts.jitter / 2)
			d += time.Duration(o.rng.Int63n(int64(2*half+1))) - half
		}
		o.schedule(e.Now(), e.Now().Add(d), ts.id)
	}
	every := func() {
		nextID++
		ts := &tickerState{id: nextID, jitter: []float64{0, 0.5}[drv.Intn(2)]}
		if drv.Intn(2) == 0 {
			ts.interval = time.Duration(100+drv.Int63n(5000)) * time.Microsecond
		} else {
			ts.interval = time.Duration(1+drv.Int63n(120)) * time.Second
		}
		// Ticker.fire arms the next firing right after fn returns, so the
		// oracle arms as fn's last step.
		ts.tk = e.Every(ts.interval, ts.jitter, func() {
			fire(ts.id)
			if !ts.stopped {
				armOracle(ts)
			}
		})
		armOracle(ts)
		tickers = append(tickers, ts)
		live++
	}
	stop := func() {
		if len(tickers) == 0 {
			return
		}
		ts := tickers[drv.Intn(len(tickers))] // stopped ones too: Stop twice
		ts.tk.Stop()
		if !ts.stopped {
			ts.stopped = true
			live--
		}
		o.cancel(ts.id) // no-op when it is the ticker firing now
	}
	ops = func() {
		for k := drv.Intn(3); k > 0; k-- {
			switch op := drv.Intn(10); {
			case op < 3:
				after()
			case op < 7:
				send()
			case op < 8:
				if live < 8 {
					every()
				}
			default:
				stop()
			}
		}
	}

	for i := 0; i < 16; i++ {
		after()
		send()
	}
	for i := 0; i < 3; i++ {
		every()
	}
	for fired < firings {
		if !e.Step() {
			t.Fatalf("seed %d: engine idle after %d firings with %d pending in the oracle", seed, fired, len(o.pending))
		}
	}
	draining = true
	for _, ts := range tickers {
		ts.tk.Stop()
		ts.stopped = true
		o.cancel(ts.id)
	}
	e.RunUntilIdle(0)
	if len(o.pending) != 0 || e.Pending() != 0 {
		t.Fatalf("seed %d: after the drain the engine has %d pending, the oracle %d", seed, e.Pending(), len(o.pending))
	}
}
