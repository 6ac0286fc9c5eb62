package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync/atomic"
	"time"
	"unsafe"
)

// A ledger is the oracle of one phase: it knows, for every item of the
// phase, which subscribers must receive it, and books each delivery the
// nodes report against that expectation. Every expected (item, subscriber)
// pair is one op. All state is allocated up front and updated with atomics,
// because deliveries arrive concurrently from the transports' reader
// goroutines and the measurement must not add a lock of its own.
type ledger struct {
	nodes    int
	first    int // global index of the phase's first item
	hashes   [][sha256.Size]byte
	expected func(item, node int) bool

	due   []atomic.Int64 // scheduled send time of each item, ns since the phase epoch
	left  []atomic.Int32 // expected deliveries still outstanding per item
	cells []atomic.Int64 // item*nodes+node -> due-to-delivery ns + 1; 0 = not delivered
	done  []atomic.Int64 // due-to-last-delivery ns + 1; 0 = incomplete

	ops        int64 // expected deliveries in total
	incomplete atomic.Int64
	allDone    chan struct{} // closed when every item is complete

	// completed carries the index of each item as its last expected
	// delivery lands; the closed loop paces itself on it. Nil in phases
	// that do not pace on completions.
	completed chan int

	duplicate atomic.Int64 // second delivery of an expected pair
	stray     atomic.Int64 // delivery to a subscriber that does not match
	corrupt   atomic.Int64 // body hash differs from the generated input
}

// newLedger books the items [first, first+len(hashes)) of the generated
// input. want(item, node) is the exact-match oracle over the generated
// subscriptions. inflight > 0 adds the completion channel, sized to the
// most items that can be incomplete at once so a delivering goroutine
// never blocks on it.
func newLedger(nodes, first int, hashes [][sha256.Size]byte, want func(item, node int) bool, inflight int) (*ledger, error) {
	n := len(hashes)
	l := &ledger{
		nodes:    nodes,
		first:    first,
		hashes:   hashes,
		expected: want,
		due:      make([]atomic.Int64, n),
		left:     make([]atomic.Int32, n),
		cells:    make([]atomic.Int64, n*nodes),
		done:     make([]atomic.Int64, n),
		allDone:  make(chan struct{}),
	}
	if inflight > 0 {
		l.completed = make(chan int, inflight)
	}
	for i := 0; i < n; i++ {
		c := 0
		for node := 0; node < nodes; node++ {
			if want(i, node) {
				c++
			}
		}
		if c == 0 {
			return nil, fmt.Errorf("generated item %d matches no subscriber", first+i)
		}
		l.left[i].Store(int32(c))
		l.ops += int64(c)
	}
	l.incomplete.Store(int64(n))
	return l, nil
}

// deliver books one delivery of global item g to node at time now (ns
// since the phase epoch). It reports false for an item outside the phase.
func (l *ledger) deliver(g, node int, now int64, body string) bool {
	i := g - l.first
	if i < 0 || i >= len(l.hashes) {
		return false
	}
	// The body is hashed in place: copying 2 KB per delivery into a []byte
	// would be the harness's largest cost on the fan-out path.
	if sha256.Sum256(unsafe.Slice(unsafe.StringData(body), len(body))) != l.hashes[i] {
		l.corrupt.Add(1)
	}
	if !l.expected(i, node) {
		l.stray.Add(1)
		return true
	}
	lat := now - l.due[i].Load()
	if !l.cells[i*l.nodes+node].CompareAndSwap(0, lat+1) {
		l.duplicate.Add(1)
		return true
	}
	if l.left[i].Add(-1) == 0 {
		l.done[i].Store(lat + 1)
		if l.completed != nil {
			l.completed <- i
		}
		if l.incomplete.Add(-1) == 0 {
			close(l.allDone)
		}
	}
	return true
}

// wait blocks until every item is complete or the deadline passes.
func (l *ledger) wait(deadline time.Duration) {
	t := time.NewTimer(deadline)
	defer t.Stop()
	select {
	case <-l.allDone:
	case <-t.C:
	}
}

// tally is the outcome of a phase.
type tally struct {
	ops       int64 // expected deliveries
	missing   int64
	duplicate int64
	stray     int64
	corrupt   int64
	deliverMs []float64 // one per delivered expected pair, sorted
	doneMs    []float64 // one per complete item, sorted
}

func (t tally) failed() int64 { return t.missing + t.duplicate + t.stray + t.corrupt }

func (t *tally) add(o tally) {
	t.ops += o.ops
	t.missing += o.missing
	t.duplicate += o.duplicate
	t.stray += o.stray
	t.corrupt += o.corrupt
}

// close counts what is still missing and returns the phase's outcome with
// its latency samples. Call it only after the phase's deadline.
func (l *ledger) close() tally {
	t := tally{
		ops:       l.ops,
		duplicate: l.duplicate.Load(),
		stray:     l.stray.Load(),
		corrupt:   l.corrupt.Load(),
	}
	for i := range l.left {
		t.missing += int64(l.left[i].Load())
		if d := l.done[i].Load(); d > 0 {
			t.doneMs = append(t.doneMs, float64(d-1)/1e6)
		}
	}
	t.deliverMs = make([]float64, 0, l.ops)
	for c := range l.cells {
		if v := l.cells[c].Load(); v > 0 {
			t.deliverMs = append(t.deliverMs, float64(v-1)/1e6)
		}
	}
	sort.Float64s(t.deliverMs)
	sort.Float64s(t.doneMs)
	return t
}
