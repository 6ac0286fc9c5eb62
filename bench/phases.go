package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"newswire"
)

const (
	// inflight is how many items the closed loop keeps incomplete.
	inflight = 8
	// windows is how many fixed-count windows the closed loop measures;
	// items_per_s is the median window.
	windows = 16
	// missDeadline is how long after a phase's last publish a delivery may
	// still arrive before it counts as missing.
	missDeadline = 2 * time.Second
	// openTail is the fixed pause between the open loop's last due time and
	// the counter reading that ends it. The phase's counters therefore cover
	// the same duration on every run.
	openTail = 250 * time.Millisecond
	// stallDeadline ends a closed loop whose next completion never comes.
	stallDeadline = 30 * time.Second
)

// clock is the open-loop generator's view of time, so its schedule can be
// tested against a fake.
type clock interface {
	// Since returns the time elapsed since the phase epoch.
	Since() time.Duration
	// SleepUntil returns no earlier than t after the epoch.
	SleepUntil(t time.Duration)
}

type wallClock struct{ epoch time.Time }

func (c wallClock) Since() time.Duration { return time.Since(c.epoch) }
func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - time.Since(c.epoch); d > 0 {
		time.Sleep(d)
	}
}

// pace is the open loop: item i is due at i*interval whatever happened to
// the items before it. send gets the item's due time, not the time it was
// actually sent, so a generator that fell behind — a stolen vCPU, a slow
// publish call — charges the wait to the items it delayed. It returns how
// late each send started.
func pace(c clock, n int, interval time.Duration, send func(i int, due time.Duration)) []time.Duration {
	late := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		due := time.Duration(i) * interval
		c.SleepUntil(due)
		late[i] = c.Since() - due
		send(i, due)
	}
	return late
}

// liveRun drives the phases of one live cluster and accumulates the ops
// and failures of all of them.
type liveRun struct {
	c     *liveCluster
	in    *input
	total tally
	// outside counts deliveries of items that belong to no open phase:
	// arrivals after their phase's deadline (already counted missing).
	outside atomic.Int64
	// publishAt[g] is when the PublishItem call of item g began (ns since
	// its phase's epoch), publishNs[g] how long it took.
	publishAt, publishNs []int64
}

func newLiveRun(c *liveCluster, in *input) *liveRun {
	return &liveRun{c: c, in: in, publishAt: make([]int64, len(in.items)), publishNs: make([]int64, len(in.items))}
}

// open starts booking deliveries of items [first, first+n) against a new
// ledger whose epoch is now.
func (r *liveRun) open(first, n, completions int) (*ledger, time.Time, error) {
	l, err := newLedger(r.c.topo.nodes, first, r.in.hashes[first:first+n],
		func(i, node int) bool { return r.in.want(first+i, node) }, completions)
	if err != nil {
		return nil, time.Time{}, err
	}
	epoch := time.Now()
	book := func(node int, it *newswire.Item, at time.Time) {
		g, ok := itemIndex(it.ID)
		if !ok || !l.deliver(g, node, int64(at.Sub(epoch)), it.Body) {
			r.outside.Add(1)
		}
	}
	r.c.book.Store(&book)
	return l, epoch, nil
}

// publish sends item i of the phase, due at the given offset from epoch.
func (r *liveRun) publish(l *ledger, epoch time.Time, i int, due time.Duration) error {
	g := l.first + i
	it := r.in.items[g]
	it.Published = epoch.Add(due)
	l.due[i].Store(int64(due))
	t0 := time.Now()
	err := r.c.publish(it, g)
	r.publishAt[g], r.publishNs[g] = int64(t0.Sub(epoch)), int64(time.Since(t0))
	return err
}

// finish waits out the phase's deadline, stops booking and folds the
// outcome into the run's totals.
func (r *liveRun) finish(l *ledger) tally {
	l.wait(missDeadline)
	r.c.book.Store(nil)
	t := l.close()
	r.total.add(t)
	return t
}

// closedLoop publishes items [first, first+n) keeping `inflight` of them
// incomplete, and returns when each window of `window` items completed, in
// seconds since the phase began.
func (r *liveRun) closedLoop(first, n, window int) (ends []float64, t tally, err error) {
	l, epoch, err := r.open(first, n, inflight)
	if err != nil {
		return nil, tally{}, err
	}
	next := 0
	send := func() error {
		err := r.publish(l, epoch, next, time.Since(epoch))
		next++
		return err
	}
	for next < inflight && next < n {
		if err := send(); err != nil {
			return nil, tally{}, err
		}
	}
	stall := time.NewTimer(stallDeadline)
	defer stall.Stop()
	for completed := 1; completed <= n; completed++ {
		select {
		case <-l.completed:
		case <-stall.C:
			r.finish(l)
			return nil, tally{}, fmt.Errorf("closed loop stalled: %d of %d items complete after %v", completed-1, n, stallDeadline)
		}
		if completed%window == 0 {
			ends = append(ends, time.Since(epoch).Seconds())
		}
		if next < n {
			if err := send(); err != nil {
				return nil, tally{}, err
			}
		}
	}
	return ends, r.finish(l), nil
}

// openResult is what the open loop measured besides the ledger's tally.
type openResult struct {
	tally
	lateMs        []float64 // how late each send started, sorted
	before, after counters  // readings that bracket the fixed-duration phase
	// ledger and epoch stay available for the traced run's span file.
	ledger *ledger
	epoch  time.Time
}

// openLoop publishes items [first, first+n) at a constant rate and reads
// the counters a fixed time after the last item was due.
func (r *liveRun) openLoop(first, n int, rate float64) (openResult, error) {
	var res openResult
	l, epoch, err := r.open(first, n, 0)
	if err != nil {
		return res, err
	}
	res.before = readCounters(liveNodesOf(r.c))
	// Reading the counters stops the world for a moment; the schedule
	// starts after it.
	shift := time.Since(epoch)
	interval := time.Duration(float64(time.Second) / rate)
	var sendErr error
	late := pace(wallClock{epoch.Add(shift)}, n, interval, func(i int, due time.Duration) {
		if err := r.publish(l, epoch, i, shift+due); err != nil && sendErr == nil {
			sendErr = err
		}
	})
	if sendErr != nil {
		return res, sendErr
	}
	wallClock{epoch}.SleepUntil(shift + time.Duration(n)*interval + openTail)
	res.after = readCounters(liveNodesOf(r.c))
	res.tally = r.finish(l)
	res.lateMs = sortedMs(late)
	res.ledger, res.epoch = l, epoch
	return res, nil
}
