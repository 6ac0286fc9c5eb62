package sim

// Deterministic parallel execution.
//
// The serial engine runs every event on one goroutine in (time, seq)
// order. At 131k gossiping nodes that single core is the bottleneck: the
// protocol work is embarrassingly parallel (each delivery touches one
// node's tables), but the engine serializes it.
//
// The Executor exploits the structure conservatively, in the classic
// PDES sense: every message in the simulated network takes at least
// LinkModel.LatencyMin of virtual time to arrive, so an event owned by
// node A at time T cannot influence an event owned by node B before
// T+LatencyMin. Events tagged with an owner and falling inside one
// lookahead window [T, T+LatencyMin) are therefore causally independent
// whenever their owners differ, and may run concurrently.
//
// Determinism is preserved by construction, not by luck:
//
//   - Compute phase: workers run each owner's window events against that
//     node's own state. Side effects that would touch shared simulator
//     state — outbound sends and timer registrations — are not applied;
//     they are buffered per event, in call order. The expensive pure
//     parts of a send (wire-size estimation, crash/block/loss-override
//     lookup against maps that are frozen for the window's duration) are
//     precomputed here, off the serial path.
//   - Commit: a single goroutine walks the buffered effects in canonical
//     (time, seq) event order and applies them exactly as the serial
//     engine would have: each send is counted against its sender and the
//     network totals, the engine RNG (loss and latency sampling) is
//     consumed in the serial order, and every delivery and timer is
//     scheduled through the engine's own scheduler, so new events receive
//     exactly the sequence numbers the serial engine would have assigned,
//     as the same recycled, typed events (see event), from a free list no
//     other goroutine touches. The window's fired events are recycled
//     there too. The resulting event queue — and hence the entire run —
//     is bit-identical to serial execution.
//
// Per-node randomness (gossip partner selection) never touches the
// engine RNG: each node owns a private rand.Rand derived from the seed,
// and a node's events always run single-threaded within a window, so
// those streams are consumed in serial order too.
//
// Events without an owner tag (engine tickers, fault injections,
// test callbacks) make no isolation promise; the window collector stops
// at the first one and runs it alone, serially, at its global position.
// Fault state (crash/block/loss overrides) is only ever mutated by such
// unowned events or by test code between runs, which is what makes the
// compute-phase lookups above safe: the maps are frozen while any window
// is in flight.
//
// Known restriction: a node-scheduled timer (Config.After) with a delay
// shorter than the lookahead could fire inside a window that has already
// executed past it, which would break serial equivalence. The commit
// phase detects that case and panics; NewCluster validates configured
// protocol timers against the link model up front. All real timers
// (ack/retransmit deadlines ≥ 1s) exceed any plausible LatencyMin by
// orders of magnitude.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"newswire/internal/vtime"
	"newswire/internal/wire"
)

// OwnedClock is the vtime.Clock handed to an executor-registered node.
// While the node is executing events inside a parallel window it reports
// the owning event's timestamp (the engine clock lags behind during the
// compute phase); outside windows it follows the engine clock. Reads and
// writes are ordered by the executor's fork/join, so no lock is needed.
type OwnedClock struct {
	base   vtime.Clock
	active bool
	at     time.Time
}

// Now implements vtime.Clock.
func (c *OwnedClock) Now() time.Time {
	if c.active {
		return c.at
	}
	return c.base.Now()
}

func (c *OwnedClock) set(t time.Time) { c.at = t; c.active = true }
func (c *OwnedClock) clear()          { c.active = false }

// effect is one buffered side effect of an owned computation: either an
// outbound message (msg != nil) or a timer registration (fn != nil).
type effect struct {
	// Send effect. size, preDropped and lossRate are precomputed during
	// the compute phase (see the package comment).
	ep         *Endpoint
	to         string
	msg        *wire.Message
	size       int64
	lossRate   float64
	preDropped bool
	// Timer effect.
	d  time.Duration
	fn func()
}

// execNode is the executor's per-owner slot. sink is non-nil exactly
// while this owner's computation runs on a worker; the owning endpoint
// and After func buffer their effects through it.
type execNode struct {
	clock *OwnedClock
	sink  *[]effect
}

// Executor runs an Engine's owned events in deterministic parallel
// windows. Construct with NewExecutor, register every node's endpoint
// with Register, then drive virtual time with RunFor/RunUntil instead of
// the engine's own methods. The same engine can still be driven serially
// (Engine.RunFor) at any point; the two modes interleave freely.
type Executor struct {
	eng       *Engine
	net       *Network
	workers   int
	lookahead time.Duration
	nodes     []*execNode

	// Window scratch, reused across windows to keep the steady state
	// allocation-free.
	batch    []*event
	effects  [][]effect
	perOwner [][]int32
	touched  []int32

	// Tick-phase scratch (RunOwners).
	tickEffects [][]effect
}

// NewExecutor returns an executor for net's engine. workers <= 0 selects
// runtime.GOMAXPROCS(0). The lookahead window is the link model's
// minimum latency; a zero-latency link model leaves no exploitable
// lookahead and degenerates to serial stepping.
func NewExecutor(net *Network, workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Executor{
		eng:       net.eng,
		net:       net,
		workers:   workers,
		lookahead: net.link.LatencyMin,
	}
}

// Workers returns the configured worker count.
func (x *Executor) Workers() int { return x.workers }

// Lookahead returns the conservative window width (the link model's
// minimum latency).
func (x *Executor) Lookahead() time.Duration { return x.lookahead }

// Register ties ep to a new owner slot and returns the clock its node
// must use. Delivery events for ep, and timers created through AfterFunc,
// are tagged with the owner and become eligible for parallel windows.
func (x *Executor) Register(ep *Endpoint) *OwnedClock {
	owner := x.newOwner()
	ep.exec = x.nodes[owner]
	ep.owner = owner
	return x.nodes[owner].clock
}

// RegisterSink creates an owner slot with no endpoint of its own and
// returns its id. The virtual-leaf layer uses one sink owner per leaf
// zone: delivery events for all of a zone's virtual members are tagged
// with the zone's sink owner, so they parallelize across zones while the
// zone's packed delivery state stays single-writer.
func (x *Executor) RegisterSink() int { return x.newOwner() }

// Adopt attaches ep to an existing owner slot (a sink owner): its
// delivery events are tagged with that owner, and sends it performs
// inside windows (ack replies) buffer through the owner's sink, keeping
// the engine RNG stream serial-identical.
func (x *Executor) Adopt(ep *Endpoint, owner int) {
	ep.exec = x.nodes[owner]
	ep.owner = owner
}

func (x *Executor) newOwner() int {
	oc := &OwnedClock{base: x.eng.clock}
	en := &execNode{clock: oc}
	x.nodes = append(x.nodes, en)
	x.perOwner = append(x.perOwner, nil)
	x.tickEffects = append(x.tickEffects, nil)
	return len(x.nodes) - 1
}

// AfterFunc returns the After scheduler for a registered endpoint's
// node: inside a window it buffers the timer as an effect (committed in
// canonical order); outside it schedules directly on the engine, tagged
// with the node's owner so the timer's firing can itself be parallelized.
func (x *Executor) AfterFunc(ep *Endpoint) func(d time.Duration, fn func()) {
	en, owner := ep.exec, ep.owner
	return func(d time.Duration, fn func()) {
		if sink := en.sink; sink != nil {
			*sink = append(*sink, effect{d: d, fn: fn})
			return
		}
		x.eng.AfterOwned(owner, d, fn)
	}
}

// RunUntil executes events until the queue is empty or the next event is
// after t, exactly like Engine.RunUntil but running owned events in
// parallel windows. It returns the number of events run.
func (x *Executor) RunUntil(t time.Time) int {
	e := x.eng
	n := 0
	for {
		first := e.peek()
		if first == nil || first.at.After(t) {
			break
		}
		if first.owner < 0 || x.lookahead <= 0 {
			e.Step()
			n++
			continue
		}
		// Collect the conservative window: owned events in
		// [first.at, first.at+lookahead), not beyond t, stopping at the
		// first unowned event (it must run at its global position).
		end := first.at.Add(x.lookahead)
		batch := x.batch[:0]
		for {
			ev := e.peek()
			if ev == nil || ev.owner < 0 || ev.at.After(t) || !ev.at.Before(end) {
				break
			}
			e.pop()
			batch = append(batch, ev)
		}
		x.batch = batch[:0] // retain backing array for reuse
		if len(batch) == 0 {
			// Defensive: cannot happen with lookahead > 0.
			e.Step()
			n++
			continue
		}
		if len(batch) == 1 {
			// Nothing to overlap; run it exactly as Engine.Step would.
			e.fire(batch[0])
			n++
			continue
		}
		x.runWindow(batch)
		n += len(batch)
	}
	e.clock.SetNow(t)
	return n
}

// RunFor advances the simulation by d of virtual time, in parallel.
func (x *Executor) RunFor(d time.Duration) int {
	return x.RunUntil(x.eng.clock.Now().Add(d))
}

// runWindow executes one batch of owned events: compute in parallel
// (grouped by owner, each owner's events in order), then commit effects
// in canonical (time, seq) order (see commitWindow).
func (x *Executor) runWindow(batch []*event) {
	// Group batch indices by owner, preserving in-owner order.
	for len(x.effects) < len(batch) {
		x.effects = append(x.effects, nil)
	}
	touched := x.touched[:0]
	for i, ev := range batch {
		o := ev.owner
		if len(x.perOwner[o]) == 0 {
			touched = append(touched, int32(o))
		}
		x.perOwner[o] = append(x.perOwner[o], int32(i))
		x.effects[i] = x.effects[i][:0]
	}

	// Compute phase.
	w := x.workers
	if w > len(touched) {
		w = len(touched)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if int(k) >= len(touched) {
					return
				}
				o := touched[k]
				en := x.nodes[o]
				for _, bi := range x.perOwner[o] {
					ev := batch[bi]
					en.clock.set(ev.at)
					en.sink = &x.effects[bi]
					ev.run()
				}
				en.sink = nil
				en.clock.clear()
			}
		}()
	}
	wg.Wait()

	// Commit.
	lastAt := batch[len(batch)-1].at
	x.commitWindow(func(yield func(at time.Time, owner int, effs []effect)) {
		for i, ev := range batch {
			yield(ev.at, ev.owner, x.effects[i])
		}
	}, lastAt)
	// The window's events have run and their effects are committed:
	// recycle the shells, here on the serial goroutine.
	for i, ev := range batch {
		x.effects[i] = x.effects[i][:0]
		x.eng.free.put(ev)
	}

	// Reset per-owner scratch.
	for _, o := range touched {
		x.perOwner[o] = x.perOwner[o][:0]
	}
	x.touched = touched[:0]
}

// commitWindow applies every buffered effect of one window (or one tick
// phase) in canonical order, on the calling goroutine: a send goes through
// commitSend, as a serial Send does, and timers are scheduled as the
// serial engine would have scheduled them. each iterates the window's
// (event time, owner, effects) triples in canonical order; lastAt is the
// latest event timestamp already executed (the timer short-delay guard).
func (x *Executor) commitWindow(each func(func(at time.Time, owner int, effs []effect)), lastAt time.Time) {
	e := x.eng
	n := x.net
	n.mu.Lock()
	defer n.mu.Unlock()
	each(func(at time.Time, owner int, effs []effect) {
		e.clock.SetNow(at)
		for j := range effs {
			eff := &effs[j]
			if eff.msg != nil {
				// Serial Send would have returned errClosed without
				// touching stats; senders treat gossip as best-effort.
				if !eff.ep.closed {
					n.commitSend(eff, at)
				}
				continue
			}
			// A timer firing strictly before the window's last executed
			// event would have interleaved with already-run events in
			// serial order (firing exactly at lastAt is safe: its sequence
			// number is necessarily later).
			fires := at.Add(eff.d)
			if fires.Before(at) {
				fires = at // AfterOwned clamps negative delays the same way
			}
			if fires.Before(lastAt) {
				panic(fmt.Sprintf(
					"sim: owned timer (%v) fires inside an executed window (%v <= %v); "+
						"timers shorter than the link lookahead require the serial engine",
					eff.d, fires, lastAt))
			}
			e.schedule(owner, fires, eff.fn)
		}
	})
}

// RunOwners runs fn(owner) for every registered owner at the current
// virtual time — the parallel equivalent of a serial for-loop over
// nodes, as used by a cluster's per-round tick phase. Each owner's sends
// and timer registrations are buffered and committed in ascending owner
// order, which matches a serial loop as long as owners were registered
// in loop order. A caller whose loop order diverges from registration
// order (a node materialized mid-run registers late but ticks at its
// index position) must use RunOwnersOrdered instead.
func (x *Executor) RunOwners(fn func(owner int)) {
	x.RunOwnersOrdered(nil, fn)
}

// RunOwnersOrdered is RunOwners with an explicit commit order: effects
// are committed — and the engine RNG consumed — following order, which
// must list every registered owner exactly once. It exists so a caller
// can keep the commit sequence identical to its serial loop even when
// owners were registered out of loop order. A nil order means ascending
// owner order.
func (x *Executor) RunOwnersOrdered(order []int, fn func(owner int)) {
	nOwners := len(x.nodes)
	if nOwners == 0 {
		return
	}
	if order != nil && len(order) != nOwners {
		panic(fmt.Sprintf("sim: RunOwnersOrdered: order lists %d of %d owners", len(order), nOwners))
	}
	now := x.eng.clock.Now()
	for i := range x.tickEffects {
		x.tickEffects[i] = x.tickEffects[i][:0]
	}
	w := x.workers
	if w > nOwners {
		w = nOwners
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= nOwners {
					return
				}
				en := x.nodes[k]
				en.clock.set(now)
				en.sink = &x.tickEffects[k]
				fn(k)
				en.sink = nil
				en.clock.clear()
			}
		}()
	}
	wg.Wait()
	x.commitWindow(func(yield func(at time.Time, owner int, effs []effect)) {
		for k := 0; k < nOwners; k++ {
			o := k
			if order != nil {
				o = order[k]
			}
			yield(now, o, x.tickEffects[o])
		}
	}, now)
}
