package sim

// The engine's event queue: one binary min-heap over (time, seq).
//
// Every entry carries its key beside its event, so a comparison reads
// integers instead of two time.Time values behind pointers. Nearly every
// event fires (deliveries, gossip ticks, ack deadlines); only Ticker.Stop
// cancels, so a cancelled event stays in the heap with its work released
// and is dropped when it reaches the top.

import (
	"newswire/internal/vtime"
)

// queued is one heap entry: an event and its (at, seq) key. The time is
// kept as whole seconds and nanoseconds since vtime.Epoch, which cannot
// overflow: one nanosecond count would saturate 292 years out, where an
// ack deadline backed off to the largest Duration lands.
type queued struct {
	sec  int64
	nsec int64
	seq  uint64
	ev   *event
}

// before is the engine's total order: time, then scheduling sequence.
func (a *queued) before(b *queued) bool {
	if a.sec != b.sec {
		return a.sec < b.sec
	}
	if a.nsec != b.nsec {
		return a.nsec < b.nsec
	}
	return a.seq < b.seq
}

// eventQueue is the queue. Not safe for concurrent use; the engine is
// single-goroutine by design.
type eventQueue struct {
	heap []queued

	cancelled int    // queued events whose work was cancelled
	highWater int    // max live (queued-cancelled) ever observed
	fired     uint64 // events popped for execution
	stopped   uint64 // cancellations ever requested
}

// Len returns the number of live (non-cancelled) events queued.
func (q *eventQueue) Len() int { return len(q.heap) - q.cancelled }

// Push stores ev.
func (q *eventQueue) Push(ev *event) {
	q.heap = append(q.heap, queued{})
	q.up(len(q.heap)-1, queued{
		sec:  ev.at.Unix() - vtime.Epoch.Unix(),
		nsec: int64(ev.at.Nanosecond()),
		seq:  ev.seq,
		ev:   ev,
	})
	if live := q.Len(); live > q.highWater {
		q.highWater = live
	}
}

// Peek returns the earliest live event without removing it, or nil when
// the queue is empty. Cancelled shells it finds on top are dropped and
// recycled into free: their canceller (Ticker.Stop) let go of them. While
// none is queued, the top is not looked at.
func (q *eventQueue) Peek(free *freeList) *event {
	for q.cancelled > 0 && len(q.heap) > 0 && q.heap[0].ev.cancelled() {
		ev := q.heap[0].ev
		q.removeTop()
		q.cancelled--
		free.put(ev)
	}
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0].ev
}

// Pop removes and returns the earliest live event, or nil.
func (q *eventQueue) Pop(free *freeList) *event {
	ev := q.Peek(free)
	if ev != nil {
		q.removeTop()
		q.fired++
	}
	return ev
}

// cancel marks ev cancelled, releasing its work immediately. The shell is
// dropped lazily when it reaches the top. Safe to call more than once;
// reports whether this call did the cancelling.
func (q *eventQueue) cancel(ev *event) bool {
	q.stopped++
	if ev.cancelled() {
		return false
	}
	ev.fn, ev.net, ev.msg = nil, nil, nil
	q.cancelled++
	return true
}

// removeTop deletes the minimum entry. The hole it leaves walks down to a
// leaf along the smaller children, and the last entry fills it from there:
// it came from the bottom, so it rarely climbs far, and the walk down
// costs one comparison a level instead of two.
func (q *eventQueue) removeTop() {
	h := q.heap
	n := len(h) - 1
	last := h[n]
	h[n] = queued{}
	q.heap = h[:n]
	if n == 0 {
		return
	}
	i := 0
	for child := 1; child < n; child = 2*i + 1 {
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		h[i] = h[child]
		i = child
	}
	q.up(i, last)
}

// up moves e from the hole at i towards the root until its parent is
// earlier, and stores it there.
func (q *eventQueue) up(i int, e queued) {
	h := q.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}
