package multicast

import (
	"fmt"
	"math/rand"
	"sort"
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

// pendingForward is one unacknowledged reliable forward in the retransmit
// queue: everything needed to resend it, plus the routing context (the
// parent table zone and child row name) needed to fail over to an
// alternate representative when the current destination stays silent.
type pendingForward struct {
	seq     uint64
	addr    string         // current destination
	zone    string         // table consulted for the forward (failover re-reads it)
	rowName string         // row within zone the destination came from
	msg     wire.Multicast // the forward, resent verbatim (AckSeq = seq)
	attempt int            // transmissions so far (1 = the initial send)
	tried   map[string]bool
}

// retransmitQueue tracks unacknowledged reliable forwards by sequence
// number. It is a passive table: the Router registers entries, schedules
// deadline callbacks, and either an ack (ack) or a deadline (take) removes
// each entry exactly once — whichever arrives first wins, which keeps
// retransmits and acks race-free under concurrent transports.
type retransmitQueue struct {
	mu      sync.Mutex
	limit   int
	seq     uint64
	pending map[uint64]*pendingForward
}

func newRetransmitQueue(limit int) *retransmitQueue {
	return &retransmitQueue{limit: limit, pending: make(map[uint64]*pendingForward)}
}

// register assigns a sequence number to p and inserts it, unless the table
// is full (the forward then degrades to fire-and-forget).
func (q *retransmitQueue) register(p *pendingForward) (uint64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) >= q.limit {
		return 0, false
	}
	q.seq++
	p.seq = q.seq
	p.msg.AckSeq = p.seq
	q.pending[p.seq] = p
	return p.seq, true
}

// ack resolves seq if it is still pending and the ack's key matches the
// registered forward (a stale or misdirected ack must not clear someone
// else's entry). It returns the matched entry, or nil.
func (q *retransmitQueue) ack(seq uint64, key string) *pendingForward {
	q.mu.Lock()
	defer q.mu.Unlock()
	p, ok := q.pending[seq]
	if !ok || p.msg.Envelope.Key() != key {
		return nil
	}
	delete(q.pending, seq)
	return p
}

// take removes and returns the entry for seq so the caller can retransmit
// it (re-registering under the same seq via reinsert), or nil if an ack
// already resolved it.
func (q *retransmitQueue) take(seq uint64) *pendingForward {
	q.mu.Lock()
	defer q.mu.Unlock()
	p, ok := q.pending[seq]
	if !ok {
		return nil
	}
	delete(q.pending, seq)
	return p
}

// reinsert puts a taken entry back under its existing seq, for the next
// attempt's deadline. Acks arriving for any earlier attempt still resolve
// it — the seq is stable across retries.
func (q *retransmitQueue) reinsert(p *pendingForward) {
	q.mu.Lock()
	q.pending[p.seq] = p
	q.mu.Unlock()
}

// scramble drops a fraction of the pending forwards (chaos injection).
// Entries are visited in ascending sequence order so identically seeded
// runs drop identically; a dropped entry's deadline callback finds nothing
// to take and becomes a no-op.
func (q *retransmitQueue) scramble(rng *rand.Rand, frac float64) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	seqs := make([]uint64, 0, len(q.pending))
	for seq := range q.pending {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	dropped := 0
	for _, seq := range seqs {
		if rng.Float64() < frac {
			delete(q.pending, seq)
			dropped++
		}
	}
	return dropped
}

// Len returns the number of in-flight reliable forwards.
func (q *retransmitQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}
