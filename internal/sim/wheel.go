package sim

// Hierarchical timer wheel — the engine's event queue.
//
// The binary heap the engine started with costs O(log n) per insert and
// pop with a poor constant (pointer-chasing comparisons on time.Time).
// At a million simulated nodes the queue holds hundreds of thousands of
// pending deliveries and gossip timers, and heap reshuffling becomes a
// measurable slice of every run. The wheel replaces it with O(1) insert
// and cancel and O(1) amortized pop, while preserving the engine's
// contract exactly: events fire in (time, seq) total order, so serial and
// parallel fingerprints are unchanged.
//
// Shape: wheelLevels levels of wheelSlots slots each. One tick is
// 2^wheelTickShift nanoseconds of virtual time (~1.05 ms), so level 0
// spans ~270 ms, level 1 ~69 s, level 2 ~4.9 h, level 3 ~52 days. Events
// beyond the wheel horizon go to a small overflow heap (drained as the
// wheel advances); in practice simulation timers never reach it.
//
// Placement invariant: an event whose tick equals curTick sits in the
// sorted current-tick buffer; otherwise it is stored at the level of the
// highest 8-bit digit in which its tick differs from curTick, in the slot
// named by its own digit there. Whenever curTick acquires a new digit at
// some level, that level's slot for the new digit is cascaded down, so
// lower levels only ever hold events agreeing with curTick on all higher
// digits — which is what makes a linear bitmap scan per level sufficient
// to find the next occupied tick.
//
// Events within one tick are not simultaneous (a tick is ~1 ms wide and
// event times are nanosecond-resolved), so the current-tick buffer is
// kept sorted by (at, seq); slot buckets are unsorted and sorted once
// when their tick becomes current.

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"time"

	"newswire/internal/vtime"
)

const (
	wheelLevels    = 4
	wheelSlotBits  = 8
	wheelSlots     = 1 << wheelSlotBits
	wheelSlotMask  = wheelSlots - 1
	wheelTickShift = 20 // 1 tick = 2^20 ns ≈ 1.05 ms of virtual time
)

// wheelTick maps a virtual timestamp to its wheel tick.
func wheelTick(at time.Time) int64 {
	return int64(at.Sub(vtime.Epoch)) >> wheelTickShift
}

// timerWheel is the queue. Not safe for concurrent use; the engine is
// single-goroutine by design.
type timerWheel struct {
	curTick int64 // tick of the current-tick buffer; never decreases

	// cur holds the events of curTick, sorted by (at, seq); curHead
	// indexes the next event to pop (popping never shifts the slice).
	cur     []*event
	curHead int

	levels [wheelLevels][wheelSlots][]*event
	occ    [wheelLevels][wheelSlots / 64]uint64

	overflow eventHeap // events beyond the wheel horizon

	count     int    // stored events, cancelled included
	cancelled int    // stored events whose fn was cancelled
	highWater int    // max live (count-cancelled) ever observed
	fired     uint64 // events popped for execution
	stopped   uint64 // cancellations ever requested
}

// Len returns the number of live (non-cancelled) events queued.
func (w *timerWheel) Len() int { return w.count - w.cancelled }

// Push stores ev. ev.at must not precede the last popped event's time
// (the engine clamps past times to now before calling).
func (w *timerWheel) Push(ev *event) {
	w.count++
	if live := w.count - w.cancelled; live > w.highWater {
		w.highWater = live
	}
	t := wheelTick(ev.at)
	if t <= w.curTick {
		// Now or sooner (clamped): binary-insert into the current buffer
		// after the popped prefix. New events carry the largest seq, so
		// same-time events land after existing ones, as the heap did.
		i := w.curHead + sort.Search(len(w.cur)-w.curHead, func(i int) bool {
			return eventOrder(w.cur[w.curHead+i], ev) > 0
		})
		w.cur = append(w.cur, nil)
		copy(w.cur[i+1:], w.cur[i:])
		w.cur[i] = ev
		return
	}
	w.place(ev, t)
}

// place stores an event at the level of the highest digit where its tick
// differs from curTick (tick > curTick).
func (w *timerWheel) place(ev *event, tick int64) {
	diff := uint64(tick ^ w.curTick)
	lvl := (bits.Len64(diff) - 1) / wheelSlotBits
	if lvl >= wheelLevels {
		w.overflow.push(ev)
		return
	}
	slot := int(tick>>(lvl*wheelSlotBits)) & wheelSlotMask
	w.levels[lvl][slot] = append(w.levels[lvl][slot], ev)
	w.occ[lvl][slot>>6] |= 1 << (slot & 63)
}

// Peek returns the earliest live event without removing it, discarding
// cancelled events it encounters. Returns nil when the queue is empty.
func (w *timerWheel) Peek() *event {
	for {
		for w.curHead < len(w.cur) {
			ev := w.cur[w.curHead]
			if ev.fn != nil {
				return ev
			}
			// Cancelled: discard in place.
			w.cur[w.curHead] = nil
			w.curHead++
			w.count--
			w.cancelled--
		}
		if w.count == 0 {
			return nil
		}
		w.advance()
	}
}

// Pop removes and returns the earliest live event, or nil.
func (w *timerWheel) Pop() *event {
	ev := w.Peek()
	if ev == nil {
		return nil
	}
	w.cur[w.curHead] = nil
	w.curHead++
	w.count--
	w.fired++
	return ev
}

// cancel marks ev cancelled, releasing its closure immediately. The event
// shell is discarded lazily when its slot drains. Safe to call more than
// once; reports whether this call did the cancelling.
func (w *timerWheel) cancel(ev *event) bool {
	w.stopped++
	if ev.fn == nil {
		return false
	}
	ev.fn = nil
	w.cancelled++
	return true
}

// advance moves curTick to the next occupied tick and fills the current
// buffer with its events, sorted. Pre: current buffer drained, count > 0.
func (w *timerWheel) advance() {
	w.cur = w.cur[:0]
	w.curHead = 0
	for {
		progressed := false
		for lvl := 0; lvl < wheelLevels; lvl++ {
			shift := lvl * wheelSlotBits
			from := int(w.curTick>>shift)&wheelSlotMask + 1
			slot, ok := w.scan(lvl, from)
			if !ok {
				continue
			}
			// Set digit lvl of curTick to slot, zeroing all lower digits.
			w.curTick = w.curTick&^(int64(1)<<(shift+wheelSlotBits)-1) | int64(slot)<<shift
			if lvl == 0 {
				w.takeSlot(slot)
				if len(w.cur) > 0 {
					return
				}
				// Slot held only cancelled events; keep searching.
			} else {
				w.cascade(lvl, slot)
			}
			progressed = true
			break
		}
		if progressed {
			if len(w.cur) > 0 {
				return
			}
			continue
		}
		// Wheel empty within the horizon; jump to the overflow minimum.
		// (Reaching here with events still stored means they are all in
		// the overflow heap: every wheel level scanned empty.)
		top := w.overflow.pop()
		if top == nil {
			// All remaining events were cancelled shells already dropped.
			return
		}
		w.curTick = wheelTick(top.at)
		w.Push(top)
		w.count-- // Push recounted it
		// Re-place overflow events now within the horizon.
		for w.overflow.len() > 0 {
			t := wheelTick(w.overflow[0].at)
			if (bits.Len64(uint64(t^w.curTick))-1)/wheelSlotBits >= wheelLevels {
				break
			}
			ev := w.overflow.pop()
			if t <= w.curTick {
				i := sort.Search(len(w.cur), func(i int) bool {
					return eventOrder(w.cur[i], ev) > 0
				})
				w.cur = append(w.cur, nil)
				copy(w.cur[i+1:], w.cur[i:])
				w.cur[i] = ev
			} else {
				w.place(ev, t)
			}
		}
		if len(w.cur) > 0 {
			return
		}
	}
}

// scan finds the first occupied slot >= from at lvl, using the occupancy
// bitmap (4 words per level).
func (w *timerWheel) scan(lvl, from int) (int, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	word := from >> 6
	mask := w.occ[lvl][word] &^ (1<<(from&63) - 1)
	for {
		if mask != 0 {
			return word<<6 + bits.TrailingZeros64(mask), true
		}
		word++
		if word >= wheelSlots/64 {
			return 0, false
		}
		mask = w.occ[lvl][word]
	}
}

// eventOrder is the engine's total order: time, then scheduling sequence.
func eventOrder(a, b *event) int {
	if c := a.at.Compare(b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// takeSlot moves a level-0 slot's events into the current buffer, sorted,
// dropping cancelled shells. The slot keeps its (emptied) bucket: a level-0
// slot comes round again 270 ms of virtual time later to hold about as many
// events, and growing it from nothing each time was half a million
// allocations in a thousand-node run.
func (w *timerWheel) takeSlot(slot int) {
	bucket := w.levels[0][slot]
	w.levels[0][slot] = bucket[:0]
	w.occ[0][slot>>6] &^= 1 << (slot & 63)
	live := bucket[:0]
	for _, ev := range bucket {
		if ev.fn == nil {
			w.count--
			w.cancelled--
			continue
		}
		live = append(live, ev)
	}
	slices.SortFunc(live, eventOrder)
	w.cur = append(w.cur[:0], live...)
	w.curHead = 0
	// Drop the bucket's references so fired closures don't linger in the
	// retained slot array.
	for i := range bucket {
		bucket[i] = nil
	}
}

// cascade redistributes a higher-level slot after curTick entered its
// digit: its events now differ from curTick only in lower digits. Unlike
// takeSlot it lets the drained bucket go: a higher-level slot holds 256
// times the events and comes round 256 times less often, so keeping its
// capacity would pin megabytes to save a handful of allocations a minute.
func (w *timerWheel) cascade(lvl, slot int) {
	bucket := w.levels[lvl][slot]
	w.levels[lvl][slot] = nil
	w.occ[lvl][slot>>6] &^= 1 << (slot & 63)
	for i, ev := range bucket {
		if ev.fn == nil {
			w.count--
			w.cancelled--
		} else if t := wheelTick(ev.at); t <= w.curTick {
			// Lands exactly on the (fresh, empty) current tick.
			w.cur = append(w.cur, ev)
		} else {
			w.place(ev, t)
		}
		bucket[i] = nil
	}
	slices.SortFunc(w.cur, eventOrder)
}

// eventHeap is a plain binary min-heap over (at, seq), retained for the
// wheel's overflow region (events beyond ~52 days of virtual time).
type eventHeap []*event

func (h eventHeap) len() int { return len(h) }

func (h eventHeap) less(i, j int) bool { return eventOrder(h[i], h[j]) < 0 }

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() *event {
	old := *h
	n := len(old)
	if n == 0 {
		return nil
	}
	top := old[0]
	old[0] = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}
