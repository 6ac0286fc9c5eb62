// Package sim is the discrete-event simulation substrate that stands in
// for the paper's Internet-scale deployment (see DESIGN.md §2). It provides
// a deterministic event engine driven by virtual time and a network model
// with per-link latency, loss, crash-stop failures and partitions.
//
// Protocol agents are passive state machines; the engine calls their
// handlers and tick functions in a single goroutine, so runs are exactly
// reproducible from a seed — every experiment table in EXPERIMENTS.md can
// be regenerated bit-for-bit.
package sim

import (
	"math/rand"
	"time"

	"newswire/internal/vtime"
	"newswire/internal/wire"
)

// Engine is a deterministic discrete-event scheduler over virtual time.
// Events fire in (time, insertion sequence) order from one binary heap
// (see queue.go). Event shells come from the engine's free list (see
// event), so in steady state a message, a timer or a tick allocates
// nothing here.
type Engine struct {
	clock *vtime.Virtual
	rng   *rand.Rand
	queue eventQueue
	free  freeList
	seq   uint64
}

// NewEngine returns an engine whose clock starts at vtime.Epoch and whose
// randomness derives entirely from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		clock: vtime.NewVirtual(),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.clock.Now() }

// Clock returns the engine's virtual clock, for handing to protocol
// components that need a vtime.Clock.
func (e *Engine) Clock() *vtime.Virtual { return e.clock }

// Rand returns the engine's deterministic random source. Only simulator-
// driven code may use it; sharing it keeps the whole run reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// After schedules fn to run d from now. Non-positive delays run at the
// current time (but still through the queue, preserving ordering).
func (e *Engine) After(d time.Duration, fn func()) {
	e.AfterOwned(noOwner, d, fn)
}

// At schedules fn at the absolute virtual time t. Times in the past are
// clamped to now.
func (e *Engine) At(t time.Time, fn func()) {
	e.AtOwned(noOwner, t, fn)
}

// noOwner marks events that are not tied to one simulated node; the
// parallel executor runs them serially, in order, on its own goroutine.
const noOwner = -1

// AfterOwned schedules fn like After and tags the event as owned by the
// executor-registered node `owner`: the event touches only that node's
// state, so parallel windows may run it concurrently with other owners'
// events. Pass noOwner (or use After) for events without that guarantee.
func (e *Engine) AfterOwned(owner int, d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.AtOwned(owner, e.clock.Now().Add(d), fn)
}

// AtOwned schedules fn like At with an owner tag (see AfterOwned).
func (e *Engine) AtOwned(owner int, t time.Time, fn func()) {
	e.schedule(owner, t, fn)
}

// schedule queues fn at t and returns its event, the handle a Ticker keeps
// (see event for how long it stays valid).
func (e *Engine) schedule(owner int, t time.Time, fn func()) *event {
	ev := e.newEvent(owner, t)
	ev.fn = fn
	e.queue.Push(ev)
	return ev
}

// scheduleDelivery queues the delivery of msg, size estimated wire bytes,
// to the endpoint `to` of n at t: a message in flight is an event with
// typed fields, not a closure.
func (e *Engine) scheduleDelivery(owner int, t time.Time, n *Network, to string, msg *wire.Message, size int64) {
	ev := e.newEvent(owner, t)
	ev.net, ev.to, ev.msg, ev.size = n, to, msg, size
	e.queue.Push(ev)
}

// newEvent takes a shell from the free list, clamps t to now and assigns
// the next sequence number — the serial order the parallel executor's
// commit reproduces by scheduling through here too.
func (e *Engine) newEvent(owner int, t time.Time) *event {
	if now := e.clock.Now(); t.Before(now) {
		t = now
	}
	e.seq++
	ev := e.free.get()
	ev.at, ev.seq, ev.owner = t, e.seq, owner
	return ev
}

// peek returns the earliest pending event without running it, or nil.
func (e *Engine) peek() *event { return e.queue.Peek(&e.free) }

// pop removes and returns the earliest pending event, or nil.
func (e *Engine) pop() *event { return e.queue.Pop(&e.free) }

// fire runs a popped event at its time and recycles its shell.
func (e *Engine) fire(ev *event) {
	e.clock.SetNow(ev.at)
	ev.run()
	e.free.put(ev)
}

// Ticker is a recurring scheduled callback. Stop cancels future firings.
type Ticker struct {
	eng      *Engine
	interval time.Duration
	jitter   float64
	fn       func()
	tick     func() // the fire method value, built once per Ticker
	pending  *event
	stopped  bool
}

// Stop cancels the ticker, including the already-scheduled next firing:
// its closure is released immediately (O(1), no queue search), and the
// queue drops the cancelled shell lazily when it reaches the top.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.pending != nil {
		t.eng.queue.cancel(t.pending)
		t.pending = nil
	}
}

// Every schedules fn to run every interval, starting one interval from
// now, until the returned Ticker is stopped. A jitter fraction j in [0,1)
// spreads firings by ±j·interval/2 so simulated nodes don't tick in
// lockstep (real gossip deployments never do).
func (e *Engine) Every(interval time.Duration, jitter float64, fn func()) *Ticker {
	t := &Ticker{eng: e, interval: interval, jitter: jitter, fn: fn}
	t.tick = t.fire
	t.arm()
	return t
}

// arm schedules the next firing one jittered interval from now.
func (t *Ticker) arm() {
	d := t.interval
	if t.jitter > 0 {
		half := time.Duration(float64(t.interval) * t.jitter / 2)
		d += time.Duration(t.eng.rng.Int63n(int64(2*half+1))) - half
	}
	if d < 0 {
		d = 0
	}
	t.pending = t.eng.schedule(noOwner, t.eng.clock.Now().Add(d), t.tick)
}

// fire is one firing. It lets go of the handle first: the event being run
// is recycled once it returns. A stopped ticker never gets here — Stop
// cancelled its pending event — except by stopping itself inside fn.
func (t *Ticker) fire() {
	t.pending = nil
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// Step runs the earliest pending event, advancing the clock to its time.
// It reports whether an event ran.
func (e *Engine) Step() bool {
	ev := e.pop()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// RunUntil executes events in order until the queue is empty or the next
// event is after t; the clock ends at exactly t (or later if an event at t
// scheduled follow-ups that also ran). It returns the number of events run.
func (e *Engine) RunUntil(t time.Time) int {
	n := 0
	for {
		next := e.peek()
		if next == nil || next.at.After(t) {
			break
		}
		e.Step()
		n++
	}
	e.clock.SetNow(t)
	return n
}

// RunFor advances the simulation by d of virtual time.
func (e *Engine) RunFor(d time.Duration) int {
	return e.RunUntil(e.clock.Now().Add(d))
}

// RunUntilIdle drains the queue completely, up to a safety cap of maxEvents
// (0 means no cap). It returns the number of events run.
func (e *Engine) RunUntilIdle(maxEvents int) int {
	n := 0
	for e.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			break
		}
	}
	return n
}

// Pending returns the number of queued (non-cancelled) events.
func (e *Engine) Pending() int { return e.queue.Len() }

// EngineStats is a snapshot of the event queue's lifetime counters,
// exposed on /status.json for live memory diagnostics.
type EngineStats struct {
	Pending   int    `json:"pending"`   // live events queued now
	HighWater int    `json:"highWater"` // most live events ever queued
	Fired     uint64 `json:"fired"`     // events executed
	Cancelled uint64 `json:"cancelled"` // cancellations requested (Ticker.Stop)
}

// Stats returns the engine's queue counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Pending:   e.queue.Len(),
		HighWater: e.queue.highWater,
		Fired:     e.queue.fired,
		Cancelled: e.queue.stopped,
	}
}

// event is one queued piece of work in one of two forms: a timer or tick
// (fn), or a message delivery (net, to, msg, size), which needs no
// closure.
//
// Shells are recycled through the engine's free list, so a pointer to an
// event is valid only while the event is queued. The handle rule: whoever
// keeps an *event — only Ticker does — lets go of it when the event fires,
// before doing anything else, and when it cancels it. The engine returns a
// shell to the free list only once nothing can reach it: after it was
// popped and fired, or when the queue drops a cancelled one.
type event struct {
	at    time.Time
	seq   uint64
	owner int // executor owner id, or noOwner
	fn    func()

	net  *Network
	to   string
	msg  *wire.Message
	size int64
}

// run executes the event's work, in either form.
func (ev *event) run() {
	if ev.net != nil {
		ev.net.deliver(ev.to, ev.msg, ev.size)
		return
	}
	ev.fn()
}

// cancelled reports whether a queued event has no work left to do: the
// queue's one test for a shell to drop (see eventQueue.cancel).
func (ev *event) cancelled() bool { return ev.fn == nil && ev.net == nil }

// freeList holds the engine's spare event shells. Only the goroutine
// driving the engine touches it (the parallel executor's serial phases
// included), so it takes no lock.
type freeList []*event

// get returns a spare shell, or a new one when none is left.
func (l *freeList) get() *event {
	n := len(*l)
	if n == 0 {
		return new(event)
	}
	ev := (*l)[n-1]
	*l = (*l)[:n-1]
	return ev
}

// put clears ev, releasing what its work referenced, and keeps it for
// reuse.
func (l *freeList) put(ev *event) {
	*ev = event{}
	*l = append(*l, ev)
}
