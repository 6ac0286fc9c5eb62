package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"newswire/internal/vtime"
)

// refQueue is the straightforward priority queue: a plain set scanned for
// the (at, seq) minimum. Slow but obviously correct — the oracle for the
// property tests below.
type refQueue struct {
	live map[*event]bool
}

func (q *refQueue) push(ev *event) {
	if q.live == nil {
		q.live = make(map[*event]bool)
	}
	q.live[ev] = true
}

func (q *refQueue) cancel(ev *event) { delete(q.live, ev) }

func (q *refQueue) popMin() *event {
	var min *event
	for ev := range q.live {
		if min == nil || ev.at.Before(min.at) || (ev.at.Equal(min.at) && ev.seq < min.seq) {
			min = ev
		}
	}
	if min != nil {
		delete(q.live, min)
	}
	return min
}

func (q *refQueue) len() int { return len(q.live) }

// TestWheelMatchesReference drives the event queue and the reference
// queue through random interleaved push/pop/cancel schedules and checks
// they agree on every pop — the total (time, seq) order the engine's
// determinism guarantees rest on. The delay mix covers already-due
// events (same instant and clamped past, where seq breaks ties), near
// events a few milliseconds out, events up to half an hour out, and
// events months out, with cancels dropped lazily among all of them.
func TestWheelMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var free freeList
		var ref refQueue
		now := vtime.Epoch
		var seq uint64
		nop := func() {}

		randomDelay := func() time.Duration {
			switch rng.Intn(12) {
			case 0:
				return 0 // same instant: seq breaks the tie
			case 1:
				// Past relative to the clock (a clamped schedule): must
				// still pop in (at, seq) order among due events.
				return -time.Duration(rng.Int63n(int64(time.Second)))
			case 2, 3:
				// Far future: two to eight months out.
				return 60*24*time.Hour + time.Duration(rng.Int63n(int64(200*24*time.Hour)))
			case 4, 5, 6:
				return time.Duration(rng.Int63n(int64(2 * time.Millisecond))) // near
			default:
				return time.Duration(rng.Int63n(int64(30 * time.Minute))) // mid-range
			}
		}

		var cancellable []*event
		for step := 0; step < 20000; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // push
				seq++
				ev := &event{at: now.Add(randomDelay()), seq: seq, fn: nop}
				q.Push(ev)
				ref.push(ev)
				cancellable = append(cancellable, ev)
			case op < 8: // pop
				if q.Len() != ref.len() {
					t.Fatalf("seed %d step %d: Len %d != reference %d", seed, step, q.Len(), ref.len())
				}
				if ref.len() == 0 {
					continue
				}
				got, want := q.Pop(&free), ref.popMin()
				if got != want {
					t.Fatalf("seed %d step %d: popped seq %d at %v, want seq %d at %v",
						seed, step, got.seq, got.at, want.seq, want.at)
				}
				// The engine nils fn when it fires an event; cancel's
				// already-fired fast path (fn == nil) relies on it.
				got.fn = nil
				if got.at.After(now) {
					now = got.at
				}
			default: // cancel a random previously pushed event
				if len(cancellable) == 0 {
					continue
				}
				i := rng.Intn(len(cancellable))
				ev := cancellable[i]
				cancellable[i] = cancellable[len(cancellable)-1]
				cancellable = cancellable[:len(cancellable)-1]
				// Cancelling an already-popped event is a no-op in both.
				q.cancel(ev)
				ref.cancel(ev)
			}
		}
		// Drain completely: the tail order matters as much as the
		// interleaved one (it reaches the far-future events).
		for ref.len() > 0 {
			got, want := q.Pop(&free), ref.popMin()
			if got != want {
				t.Fatalf("seed %d drain: popped seq %d at %v, want seq %d at %v",
					seed, got.seq, got.at, want.seq, want.at)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("seed %d: queue reports %d pending after drain", seed, q.Len())
		}
	}
}

// TestTickerStopCancelsPending checks that Stop cancels the
// already-scheduled next firing outright (the closure is freed, the
// pending count drops), instead of leaving a dead event to fire as a
// no-op.
func TestTickerStopCancelsPending(t *testing.T) {
	e := NewEngine(1)
	fires := 0
	tk := e.Every(time.Second, 0, func() { fires++ })
	e.RunFor(3500 * time.Millisecond)
	if fires == 0 {
		t.Fatal("ticker never fired")
	}
	firesAtStop := fires
	if e.Pending() == 0 {
		t.Fatal("expected a pending next firing before Stop")
	}
	tk.Stop()
	if e.Pending() != 0 {
		t.Fatalf("Stop left %d pending events", e.Pending())
	}
	st := e.Stats()
	if st.Cancelled == 0 {
		t.Fatal("Stats.Cancelled not incremented by Stop")
	}
	e.RunFor(10 * time.Second)
	if fires != firesAtStop {
		t.Fatalf("ticker fired %d more times after Stop", fires-firesAtStop)
	}
}

// TestEngineStats checks the pending high-water mark and fired counter.
func TestEngineStats(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 100; i++ {
		e.After(time.Duration(i)*time.Millisecond, func() {})
	}
	if st := e.Stats(); st.Pending != 100 || st.HighWater < 100 {
		t.Fatalf("before run: %+v", st)
	}
	e.RunFor(time.Second)
	st := e.Stats()
	if st.Pending != 0 || st.Fired != 100 || st.HighWater < 100 {
		t.Fatalf("after run: %+v", st)
	}
}

// TestQueueOrdersSaturatedTimes: two deadlines backed off to the largest
// Duration from different instants both saturate their integer key, and
// still fire in time order, not scheduling order.
func TestQueueOrdersSaturatedTimes(t *testing.T) {
	var q eventQueue
	var free freeList
	nop := func() {}
	late := &event{at: vtime.Epoch.Add(time.Hour).Add(math.MaxInt64), seq: 1, fn: nop}
	early := &event{at: vtime.Epoch.Add(time.Minute).Add(math.MaxInt64), seq: 2, fn: nop}
	q.Push(late)
	q.Push(early)
	if got := q.Pop(&free); got != early {
		t.Fatalf("popped seq %d first, want the earlier time (seq 2)", got.seq)
	}
	if got := q.Pop(&free); got != late {
		t.Fatalf("popped seq %d second, want seq 1", got.seq)
	}
}

// BenchmarkEngineQueue is the event queue on its own: a steady pending set
// of n events, where each fired event schedules one successor across
// DefaultWAN's latency range. n is sim_churn's Engine.Stats().HighWater
// (2,232 at seed 1) and 16 times that. An op is one event: its pop, its
// firing and its successor's push; allocs/op is 0 once the free list and
// the queue are grown.
func BenchmarkEngineQueue(b *testing.B) {
	for _, n := range []int{2232, 16 * 2232} {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			e := NewEngine(1)
			span := int64(DefaultWAN.LatencyMax - DefaultWAN.LatencyMin + 1)
			delay := func() time.Duration {
				return DefaultWAN.LatencyMin + time.Duration(e.Rand().Int63n(span))
			}
			var next func()
			next = func() { e.After(delay(), next) }
			for i := 0; i < n; i++ {
				e.After(delay(), next)
			}
			for i := 0; i < 4*n; i++ {
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.StopTimer()
			if e.Pending() != n {
				b.Fatalf("%d events pending, want %d", e.Pending(), n)
			}
		})
	}
}
