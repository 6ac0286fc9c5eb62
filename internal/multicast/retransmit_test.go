package multicast

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"newswire/internal/astrolabe"
	"newswire/internal/value"
	"newswire/internal/wire"
)

// ackedRouter returns a router with reliable forwarding on v's leaf zone,
// whose ack deadlines are collected in *deadlines rather than armed.
func ackedRouter(t *testing.T, v View, maxAttempts int, deadlines *[]func()) (*Router, *frameTransport) {
	t.Helper()
	tr := &frameTransport{addr: v.Addr()}
	cfg := Config{
		View:        v,
		Transport:   tr,
		Rand:        rand.New(rand.NewSource(1)),
		Deliver:     func(*wire.ItemEnvelope) {},
		AckTimeout:  time.Second,
		MaxAttempts: maxAttempts,
		After:       func(_ time.Duration, fn func()) { *deadlines = append(*deadlines, fn) },
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, tr
}

// ackFrom is the ack addr sends for the forward of env with seq.
func ackFrom(addr string, seq uint64, env wire.ItemEnvelope) *wire.Message {
	return &wire.Message{Kind: wire.KindMulticastAck, From: addr, MulticastAck: &wire.MulticastAck{
		Seq: seq, Key: env.Key(), TargetZone: "/z",
	}}
}

// TestRetransmitQueueConcurrentAcks hammers the router's retransmit table
// from concurrent acker and deadline goroutines (the shapes a real TCP
// transport produces) and checks every pending destination resolves
// exactly once. Run with -race.
func TestRetransmitQueueConcurrentAcks(t *testing.T) {
	const items, members = 5, 100
	v := &frameView{zone: "/z", name: "self", addr: "self:0", members: map[string]string{}}
	for i := 0; i < members; i++ {
		v.members[fmt.Sprintf("m%d", i)] = fmt.Sprintf("m%d:0", i)
	}
	var deadlines []func()
	r, tr := ackedRouter(t, v, 1, &deadlines)
	for i := 0; i < items; i++ {
		if err := r.Publish(envelope(fmt.Sprintf("it-%d", i)), "/z"); err != nil {
			t.Fatal(err)
		}
	}
	const n = items * members
	if len(tr.sent) != n || len(deadlines) != n || r.PendingAcks() != n {
		t.Fatalf("sent %d, armed %d deadlines, %d pending; want %d each",
			len(tr.sent), len(deadlines), r.PendingAcks(), n)
	}

	// Every destination races its ack against its (last-attempt)
	// deadline; each entry must resolve on exactly one side.
	var wg sync.WaitGroup
	for i, s := range tr.sent {
		msg, err := wire.Decode(s.frame.Payload())
		if err != nil {
			t.Fatal(err)
		}
		ack := ackFrom(s.addr, msg.Multicast.AckSeq, msg.Multicast.Envelope)
		wg.Add(2)
		go func() {
			defer wg.Done()
			r.HandleMessage(ack)
		}()
		go func() {
			defer wg.Done()
			deadlines[i]()
		}()
	}
	wg.Wait()
	st := r.Stats()
	if st.AcksReceived+st.DeliveryFailures != n {
		t.Fatalf("resolved %d+%d times, want exactly %d", st.AcksReceived, st.DeliveryFailures, n)
	}
	if r.PendingAcks() != 0 {
		t.Fatalf("table still holds %d entries", r.PendingAcks())
	}
}

// repsView lists reps for the leaf member m1's row, so a retry to it can
// fail over to another address.
type repsView struct {
	*frameView
	reps []string
}

func (v repsView) Row(zone, name string) (astrolabe.Row, bool) {
	row, ok := v.frameView.Row(zone, name)
	if ok && name == "m1" {
		row.Attrs = value.Map{astrolabe.AttrAddr: value.String(v.reps[0]), astrolabe.AttrReps: value.Strings(v.reps)}
	}
	return row, ok
}

// TestRetransmitQueueAckValidation covers the guards of the router's
// retransmit table: acks with a wrong key, seq or sender are ignored, a
// late ack from an address tried on an earlier attempt still resolves its
// entry after a failover retry, and past the capacity limit a destination
// degrades to fire-and-forget, its ack ignored.
func TestRetransmitQueueAckValidation(t *testing.T) {
	v := repsView{
		frameView: &frameView{zone: "/z", name: "self", addr: "self:0", members: map[string]string{"m1": "m1:0"}},
		reps:      []string{"m1:0", "m1b:0"},
	}
	var deadlines []func()
	r, tr := ackedRouter(t, v, 4, &deadlines)
	env := envelope("a")
	if err := r.Publish(env, "/z"); err != nil {
		t.Fatal(err)
	}
	if len(tr.sent) != 1 || len(deadlines) != 1 {
		t.Fatalf("sent %d frames and armed %d deadlines, want 1 each", len(tr.sent), len(deadlines))
	}
	msg, err := wire.Decode(tr.sent[0].frame.Payload())
	if err != nil {
		t.Fatal(err)
	}
	seq := msg.Multicast.AckSeq
	for _, bad := range []*wire.Message{
		ackFrom("m1:0", seq, envelope("someone-else")),
		ackFrom("m1:0", seq+99, env),
		ackFrom("m2:0", seq, env),
	} {
		r.HandleMessage(bad)
		if r.PendingAcks() != 1 {
			t.Fatalf("ack %+v from %s resolved the entry", *bad.MulticastAck, bad.From)
		}
	}

	// Deadline path: the retry fails over to m1b; a late ack from m1, the
	// address of the first attempt, still resolves the entry.
	deadlines[0]()
	if len(tr.sent) != 2 || tr.sent[1].addr != "m1b:0" {
		t.Fatalf("retry went to %v, want a failover to m1b:0", tr.sent)
	}
	if tr.newFrames != 1 || frameHead(tr.sent[1].frame) != frameHead(tr.sent[0].frame) {
		t.Errorf("retry built %d frames; want it to resend the first one", tr.newFrames)
	}
	r.HandleMessage(ackFrom("m1:0", seq, env))
	if r.PendingAcks() != 0 || r.Stats().AcksReceived != 1 {
		t.Fatalf("late ack from the first address left %d pending, %d acks received",
			r.PendingAcks(), r.Stats().AcksReceived)
	}
	deadlines[1]()
	if len(tr.sent) != 2 {
		t.Fatal("deadline of an acked entry retransmitted")
	}

	// Capacity: past maxPendingAcks a destination is not registered, and
	// its ack changes nothing.
	f := r.newForward(hop{target: "/z", env: &env}, "/z", false)
	for i := 0; i < maxPendingAcks; i++ {
		r.forwardTo(f, "/z", "m", fmt.Sprintf("a%d", i))
	}
	if r.PendingAcks() != maxPendingAcks {
		t.Fatalf("%d destinations registered below the limit, want %d", r.PendingAcks(), maxPendingAcks)
	}
	armed := len(deadlines)
	r.forwardTo(f, "/z", "m", "over")
	if r.PendingAcks() != maxPendingAcks || len(deadlines) != armed {
		t.Fatal("a destination above the limit was registered")
	}
	if last := tr.sent[len(tr.sent)-1]; last.addr != "over" {
		t.Fatalf("the degraded destination was not sent the forward (last send to %s)", last.addr)
	}
	r.HandleMessage(ackFrom("over", f.mc.AckSeq, env))
	if r.PendingAcks() != maxPendingAcks || r.Stats().AcksReceived != 1 {
		t.Fatal("ack of a degraded destination resolved an entry")
	}
}

// TestAckResolvesLatestSenderToAddress covers two destinations of one
// forward sent to the same address: m1's retry fails over to m2, which
// already has its own copy pending. An ack answers the latest copy sent to
// its sender, so m2's first ack resolves m1's entry, m2's own entry keeps
// retrying until a second ack from m2 resolves it.
func TestAckResolvesLatestSenderToAddress(t *testing.T) {
	v := repsView{
		frameView: &frameView{zone: "/z", name: "self", addr: "self:0",
			members: map[string]string{"m1": "m1:0", "m2": "m2:0"}},
		reps: []string{"m1:0", "m2:0"},
	}
	var deadlines []func()
	r, tr := ackedRouter(t, v, 4, &deadlines)
	env := envelope("shared")
	if err := r.Publish(env, "/z"); err != nil {
		t.Fatal(err)
	}
	deadlineOf := map[string]func(){}
	for i, s := range tr.sent {
		deadlineOf[s.addr] = deadlines[i]
	}
	msg, err := wire.Decode(tr.sent[0].frame.Payload())
	if err != nil {
		t.Fatal(err)
	}
	seq := msg.Multicast.AckSeq

	deadlineOf["m1:0"]()
	if n := len(tr.sent); n != 3 || tr.sent[2].addr != "m2:0" {
		t.Fatalf("m1's retry went to %v, want a failover to m2:0", tr.sent)
	}
	r.HandleMessage(ackFrom("m2:0", seq, env))
	if r.PendingAcks() != 1 {
		t.Fatalf("after one ack from m2 PendingAcks = %d, want 1", r.PendingAcks())
	}
	deadlineOf["m2:0"]()
	if n := len(tr.sent); n != 4 {
		t.Fatalf("m2's own entry did not retry (%d sends); the first ack should have resolved m1's", n)
	}
	r.HandleMessage(ackFrom("m2:0", seq, env))
	if r.PendingAcks() != 0 || r.Stats().AcksReceived != 2 {
		t.Fatalf("after two acks from m2: %d pending, %d acks received", r.PendingAcks(), r.Stats().AcksReceived)
	}
}
