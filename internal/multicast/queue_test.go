package multicast

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"newswire/internal/sim"
	"newswire/internal/wire"
)

// queueHarness records messages the queue transmits, in order.
type queueHarness struct {
	eng  *sim.Engine
	net  *sim.Network
	sent []string // "dest:item"
}

func newQueueHarness(t *testing.T, strategy Strategy, capacity int) (*queueHarness, *ForwardQueue) {
	t.Helper()
	eng := sim.NewEngine(3)
	net := sim.NewNetwork(eng, sim.LinkModel{})
	h := &queueHarness{eng: eng, net: net}
	ep := net.Attach("src", nil)
	for _, dest := range []string{"d1", "d2", "d3"} {
		dest := dest
		net.Attach(dest, func(m *wire.Message) {
			h.sent = append(h.sent, dest+":"+m.Multicast.Envelope.ItemID)
		})
	}
	q, err := NewForwardQueue(ep, strategy, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return h, q
}

func mcMsg(id string, urgency int) *wire.Message {
	return &wire.Message{
		Kind: wire.KindMulticast,
		Multicast: &wire.Multicast{
			TargetZone: "/x",
			Envelope:   wire.ItemEnvelope{Publisher: "p", ItemID: id, Urgency: urgency},
		},
	}
}

func TestNewForwardQueueValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	net := sim.NewNetwork(eng, sim.LinkModel{})
	ep := net.Attach("x", nil)
	if _, err := NewForwardQueue(ep, Strategy(99), 10); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := NewForwardQueue(ep, FIFO, 0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestStrategyString(t *testing.T) {
	if FIFO.String() != "fifo" || WeightedRoundRobin.String() != "wrr" ||
		UrgencyFirst.String() != "urgency" {
		t.Fatal("strategy names wrong")
	}
	if Strategy(42).String() != "strategy(42)" {
		t.Fatal("unknown strategy name wrong")
	}
}

func TestFIFOOrder(t *testing.T) {
	h, q := newQueueHarness(t, FIFO, 100)
	q.Enqueue("d2", mcMsg("a", 8))
	q.Enqueue("d1", mcMsg("b", 1))
	q.Enqueue("d2", mcMsg("c", 8))
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	q.Drain(10)
	h.eng.RunUntilIdle(0)
	want := []string{"d2:a", "d1:b", "d2:c"}
	if len(h.sent) != 3 {
		t.Fatalf("sent = %v", h.sent)
	}
	for i := range want {
		if h.sent[i] != want[i] {
			t.Fatalf("FIFO order = %v, want %v", h.sent, want)
		}
	}
}

func TestUrgencyFirstOrder(t *testing.T) {
	h, q := newQueueHarness(t, UrgencyFirst, 100)
	q.Enqueue("d1", mcMsg("routine", 8))
	q.Enqueue("d2", mcMsg("flash", 1))
	q.Enqueue("d3", mcMsg("mid", 4))
	q.Drain(10)
	h.eng.RunUntilIdle(0)
	want := []string{"d2:flash", "d3:mid", "d1:routine"}
	for i := range want {
		if h.sent[i] != want[i] {
			t.Fatalf("urgency order = %v, want %v", h.sent, want)
		}
	}
}

func TestUrgencyInvalidTreatedAsRoutine(t *testing.T) {
	h, q := newQueueHarness(t, UrgencyFirst, 100)
	q.Enqueue("d1", mcMsg("zero-urgency", 0)) // invalid -> 8
	q.Enqueue("d2", mcMsg("urgent", 2))
	q.Drain(10)
	h.eng.RunUntilIdle(0)
	if h.sent[0] != "d2:urgent" {
		t.Fatalf("order = %v", h.sent)
	}
}

func TestWRRFairness(t *testing.T) {
	h, q := newQueueHarness(t, WeightedRoundRobin, 100)
	// Flood d1, trickle d2: WRR must interleave, not starve d2.
	for i := 0; i < 6; i++ {
		q.Enqueue("d1", mcMsg("bulk", 8))
	}
	q.Enqueue("d2", mcMsg("small", 8))
	q.Drain(3)
	h.eng.RunUntilIdle(0)
	foundSmall := false
	for _, s := range h.sent {
		if s == "d2:small" {
			foundSmall = true
		}
	}
	if !foundSmall {
		t.Fatalf("WRR starved d2 in first 3 sends: %v", h.sent)
	}
}

func TestWRRWeights(t *testing.T) {
	h, q := newQueueHarness(t, WeightedRoundRobin, 100)
	q.SetWeight("d1", 3)
	q.SetWeight("d2", 1)
	for i := 0; i < 9; i++ {
		q.Enqueue("d1", mcMsg("h", 8))
		if i < 3 {
			q.Enqueue("d2", mcMsg("l", 8))
		}
	}
	q.Drain(8)
	h.eng.RunUntilIdle(0)
	d1, d2 := 0, 0
	for _, s := range h.sent {
		if s[:2] == "d1" {
			d1++
		} else {
			d2++
		}
	}
	if d1 < 2*d2 {
		t.Fatalf("weighting ineffective: d1=%d d2=%d (%v)", d1, d2, h.sent)
	}
	if d2 == 0 {
		t.Fatal("low-weight destination starved entirely")
	}
}

func TestQueueCapacityDrops(t *testing.T) {
	_, q := newQueueHarness(t, FIFO, 2)
	q.Enqueue("d1", mcMsg("a", 8))
	q.Enqueue("d1", mcMsg("b", 8))
	q.Enqueue("d1", mcMsg("c", 8)) // over capacity
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	_, dropped := q.Counters()
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
}

func TestDrainEmptyQueue(t *testing.T) {
	_, q := newQueueHarness(t, WeightedRoundRobin, 10)
	if n := q.Drain(5); n != 0 {
		t.Fatalf("Drain on empty = %d", n)
	}
}

func TestDrainPartial(t *testing.T) {
	h, q := newQueueHarness(t, FIFO, 100)
	for i := 0; i < 5; i++ {
		q.Enqueue("d1", mcMsg("x", 8))
	}
	if n := q.Drain(2); n != 2 {
		t.Fatalf("Drain(2) = %d", n)
	}
	if q.Len() != 3 {
		t.Fatalf("Len after partial drain = %d", q.Len())
	}
	sent, _ := q.Counters()
	if sent != 2 {
		t.Fatalf("sent counter = %d", sent)
	}
	h.eng.RunUntilIdle(0)
}

// Property: every enqueued message (within capacity) is eventually
// drained exactly once, under every strategy.
func TestQuickQueueConservation(t *testing.T) {
	strategies := []Strategy{FIFO, WeightedRoundRobin, UrgencyFirst}
	f := func(destsRaw []uint8, urgRaw []uint8) bool {
		for _, strategy := range strategies {
			h, q := newQuickHarness(strategy)
			n := len(destsRaw)
			if n > 50 {
				n = 50
			}
			for i := 0; i < n; i++ {
				dest := []string{"d1", "d2", "d3"}[destsRaw[i]%3]
				urg := 8
				if i < len(urgRaw) {
					urg = int(urgRaw[i]%8) + 1
				}
				if err := q.Enqueue(dest, mcMsg(fmt.Sprintf("m%d", i), urg)); err != nil {
					return false
				}
			}
			total := 0
			for {
				drained := q.Drain(7)
				total += drained
				if drained == 0 {
					break
				}
			}
			h.eng.RunUntilIdle(0)
			if total != n || q.Len() != 0 || len(h.sent) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// newQuickHarness is newQueueHarness without a testing.T, for
// testing/quick property functions.
func newQuickHarness(strategy Strategy) (*queueHarness, *ForwardQueue) {
	eng := sim.NewEngine(11)
	net := sim.NewNetwork(eng, sim.LinkModel{})
	h := &queueHarness{eng: eng, net: net}
	ep := net.Attach("src", nil)
	for _, dest := range []string{"d1", "d2", "d3"} {
		dest := dest
		net.Attach(dest, func(m *wire.Message) {
			h.sent = append(h.sent, dest+":"+m.Multicast.Envelope.ItemID)
		})
	}
	q, _ := NewForwardQueue(ep, strategy, 1000)
	return h, q
}

// TestRetransmitQueueConcurrentAcks hammers the retransmit table from
// concurrent acker and deadline goroutines (the shapes a real TCP
// transport produces) and checks every forward resolves exactly once.
// Run with -race.
func TestRetransmitQueueConcurrentAcks(t *testing.T) {
	const n = 500
	q := newRetransmitQueue(n)

	seqs := make([]uint64, 0, n)
	keys := make(map[uint64]string, n)
	for i := 0; i < n; i++ {
		env := wire.ItemEnvelope{Publisher: "p", ItemID: fmt.Sprintf("it-%d", i)}
		p := &pendingForward{
			addr:  "dst",
			zone:  "/z",
			msg:   wire.Multicast{TargetZone: "/z", Envelope: env},
			tried: map[string]bool{"dst": true},
		}
		seq, ok := q.register(p)
		if !ok {
			t.Fatalf("register %d refused below the limit", i)
		}
		if p.msg.AckSeq != seq {
			t.Fatalf("registered forward carries AckSeq %d, want %d", p.msg.AckSeq, seq)
		}
		seqs = append(seqs, seq)
		keys[seq] = env.Key()
	}

	// Half the seqs race an acker against a deadline-taker; each entry
	// must resolve on exactly one side.
	var ackWins, takeWins int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, seq := range seqs {
		seq := seq
		wg.Add(2)
		go func() {
			defer wg.Done()
			if q.ack(seq, keys[seq]) != nil {
				mu.Lock()
				ackWins++
				mu.Unlock()
			}
		}()
		go func() {
			defer wg.Done()
			if q.take(seq) != nil {
				mu.Lock()
				takeWins++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if ackWins+takeWins != n {
		t.Fatalf("resolved %d+%d times, want exactly %d", ackWins, takeWins, n)
	}
	if q.Len() != 0 {
		t.Fatalf("queue still holds %d entries", q.Len())
	}
}

// TestRetransmitQueueAckValidation covers the guards: wrong keys, stale
// seqs, the capacity limit, and seq stability across reinsert.
func TestRetransmitQueueAckValidation(t *testing.T) {
	q := newRetransmitQueue(2)
	env := wire.ItemEnvelope{Publisher: "p", ItemID: "a"}
	p1 := &pendingForward{msg: wire.Multicast{Envelope: env}, tried: map[string]bool{}}
	seq, ok := q.register(p1)
	if !ok {
		t.Fatal("register refused with space available")
	}
	if q.ack(seq, "someone/else#0") != nil {
		t.Fatal("ack with mismatched key resolved the entry")
	}
	if q.ack(seq+99, env.Key()) != nil {
		t.Fatal("ack for unknown seq resolved an entry")
	}

	// Deadline path: take, reinsert, then a late ack for the original
	// seq still resolves it (the seq is stable across retries).
	taken := q.take(seq)
	if taken == nil {
		t.Fatal("take failed for a pending entry")
	}
	q.reinsert(taken)
	if q.ack(seq, env.Key()) == nil {
		t.Fatal("ack after reinsert failed")
	}

	// Capacity: the third concurrent registration degrades.
	q2 := newRetransmitQueue(2)
	for i := 0; i < 2; i++ {
		if _, ok := q2.register(&pendingForward{msg: wire.Multicast{Envelope: env}}); !ok {
			t.Fatalf("register %d refused below the limit", i)
		}
	}
	if _, ok := q2.register(&pendingForward{msg: wire.Multicast{Envelope: env}}); ok {
		t.Fatal("register above the limit accepted")
	}
}
