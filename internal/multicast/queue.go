package multicast

import (
	"fmt"
	"sync"

	"newswire/internal/transport"
	"newswire/internal/wire"
)

// Strategy selects the order in which a forwarding component drains its
// per-destination queues (§9: "a set of forwarding queues, one for each of
// the representatives at a child zone. The best strategy to fill queues is
// still under research. We are experimenting with weighted round-robin
// strategies, as well as some more aggressive techniques"). Ablation A1
// compares these strategies.
type Strategy int

// Queue drain strategies.
const (
	// FIFO drains messages strictly in global arrival order.
	FIFO Strategy = iota + 1
	// WeightedRoundRobin cycles across destination queues, taking a
	// burst proportional to each destination's weight.
	WeightedRoundRobin
	// UrgencyFirst drains the most urgent item first (the "more
	// aggressive" end of the paper's spectrum): urgency 1 beats 8, ties
	// break by arrival order.
	UrgencyFirst
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case FIFO:
		return "fifo"
	case WeightedRoundRobin:
		return "wrr"
	case UrgencyFirst:
		return "urgency"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

type queued struct {
	to      string
	msg     *wire.Message
	urgency int
	seq     int64
}

// ForwardQueue is a bounded forwarding component: Enqueue accepts
// messages, Drain transmits them according to the strategy. It models the
// limited egress capacity of a forwarding node so experiments can observe
// queueing behaviour under load.
type ForwardQueue struct {
	mu       sync.Mutex
	strategy Strategy
	tr       transport.Transport
	perDest  map[string][]*queued
	order    []string // destination round-robin order
	rrIndex  int
	credit   int // remaining WRR burst for the current destination
	weights  map[string]int
	capacity int
	seq      int64
	size     int
	dropped  int64
	sent     int64
}

// NewForwardQueue creates a queue with the given drain strategy and total
// capacity (messages across all destinations; overflow drops the newest —
// the protection "from flooding by publishers", §8).
func NewForwardQueue(tr transport.Transport, strategy Strategy, capacity int) (*ForwardQueue, error) {
	switch strategy {
	case FIFO, WeightedRoundRobin, UrgencyFirst:
	default:
		return nil, fmt.Errorf("multicast: unknown strategy %d", strategy)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("multicast: queue capacity must be positive")
	}
	return &ForwardQueue{
		strategy: strategy,
		tr:       tr,
		perDest:  make(map[string][]*queued),
		weights:  make(map[string]int),
		capacity: capacity,
	}, nil
}

// SetWeight assigns a WRR weight to a destination (default 1).
func (q *ForwardQueue) SetWeight(dest string, w int) {
	if w < 1 {
		w = 1
	}
	q.mu.Lock()
	q.weights[dest] = w
	q.mu.Unlock()
}

// Enqueue adds a message for a destination; if the queue is full the
// message is dropped and counted.
func (q *ForwardQueue) Enqueue(to string, msg *wire.Message) error {
	urgency := urgencyOf(msg)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size >= q.capacity {
		q.dropped++
		return nil
	}
	q.seq++
	item := &queued{to: to, msg: msg, urgency: urgency, seq: q.seq}
	if _, known := q.perDest[to]; !known {
		q.order = append(q.order, to)
	}
	items := append(q.perDest[to], item)
	if q.strategy == UrgencyFirst {
		// Keep each destination queue sorted by (urgency, arrival) so an
		// urgent item overtakes queued routine traffic to the same
		// destination, not just traffic to other destinations.
		i := len(items) - 1
		for i > 0 && (items[i-1].urgency > item.urgency) {
			items[i] = items[i-1]
			i--
		}
		items[i] = item
	}
	q.perDest[to] = items
	q.size++
	return nil
}

// urgencyOf extracts the editorial urgency from a multicast message.
func urgencyOf(msg *wire.Message) int {
	if msg.Multicast == nil {
		return 8
	}
	u := msg.Multicast.Envelope.Urgency
	if u < 1 || u > 8 {
		return 8
	}
	return u
}

// Len returns the number of queued messages.
func (q *ForwardQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// Counters returns (sent, dropped) totals.
func (q *ForwardQueue) Counters() (sent, dropped int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sent, q.dropped
}

// Drain transmits up to n queued messages according to the strategy and
// returns how many were sent.
func (q *ForwardQueue) Drain(n int) int {
	sent := 0
	for sent < n {
		item := q.next()
		if item == nil {
			break
		}
		_ = q.tr.Send(item.to, item.msg)
		sent++
		q.mu.Lock()
		q.sent++
		q.mu.Unlock()
	}
	return sent
}

// next pops the next message per the strategy, or nil when empty.
func (q *ForwardQueue) next() *queued {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size == 0 {
		return nil
	}
	switch q.strategy {
	case FIFO:
		return q.popFIFOLocked()
	case UrgencyFirst:
		return q.popUrgencyLocked()
	default:
		return q.popWRRLocked()
	}
}

func (q *ForwardQueue) popFIFOLocked() *queued {
	var best *queued
	var bestDest string
	for dest, items := range q.perDest {
		if len(items) == 0 {
			continue
		}
		if best == nil || items[0].seq < best.seq {
			best = items[0]
			bestDest = dest
		}
	}
	if best != nil {
		q.removeHeadLocked(bestDest)
	}
	return best
}

func (q *ForwardQueue) popUrgencyLocked() *queued {
	var best *queued
	var bestDest string
	for dest, items := range q.perDest {
		if len(items) == 0 {
			continue
		}
		head := items[0]
		if best == nil || head.urgency < best.urgency ||
			(head.urgency == best.urgency && head.seq < best.seq) {
			best = head
			bestDest = dest
		}
	}
	if best != nil {
		q.removeHeadLocked(bestDest)
	}
	return best
}

// popWRRLocked implements classic weighted round-robin: the current
// destination may send up to weight consecutive messages (its credit)
// before the rotation advances.
func (q *ForwardQueue) popWRRLocked() *queued {
	if len(q.order) == 0 {
		return nil
	}
	for tries := 0; tries < 2*len(q.order)+2; tries++ {
		dest := q.order[q.rrIndex%len(q.order)]
		items := q.perDest[dest]
		if q.credit > 0 && len(items) > 0 {
			q.credit--
			head := items[0]
			q.removeHeadLocked(dest)
			return head
		}
		// Advance the rotation and grant the next destination its burst.
		q.rrIndex = (q.rrIndex + 1) % len(q.order)
		w := q.weights[q.order[q.rrIndex]]
		if w < 1 {
			w = 1
		}
		q.credit = w
	}
	return nil
}

func (q *ForwardQueue) removeHeadLocked(dest string) {
	items := q.perDest[dest]
	copy(items, items[1:])
	items[len(items)-1] = nil
	q.perDest[dest] = items[:len(items)-1]
	q.size--
}
