package sim

import (
	"sync"
	"testing"
	"time"

	"newswire/internal/wire"
)

func TestOwnedClockFollowsBaseUntilSet(t *testing.T) {
	eng := NewEngine(1)
	oc := &OwnedClock{base: eng.Clock()}
	if !oc.Now().Equal(eng.Now()) {
		t.Fatalf("idle owned clock = %v, engine = %v", oc.Now(), eng.Now())
	}
	at := eng.Now().Add(5 * time.Second)
	oc.set(at)
	if !oc.Now().Equal(at) {
		t.Fatalf("active owned clock = %v, want %v", oc.Now(), at)
	}
	oc.clear()
	if !oc.Now().Equal(eng.Now()) {
		t.Fatalf("cleared owned clock = %v, engine = %v", oc.Now(), eng.Now())
	}
}

// TestExecutorStopsWindowAtUnownedEvent pins the conservative rule: an
// unowned event must run at its global position, never inside a window.
func TestExecutorStopsWindowAtUnownedEvent(t *testing.T) {
	eng := NewEngine(1)
	net := NewNetwork(eng, LinkModel{LatencyMin: 20 * time.Millisecond, LatencyMax: 20 * time.Millisecond})
	x := NewExecutor(net, 4)
	for i := 0; i < 2; i++ {
		ep := net.Attach("n"+string(rune('0'+i)), func(*wire.Message) {})
		x.Register(ep)
	}

	var mu sync.Mutex
	var order []string
	record := func(tag string) func() {
		return func() { mu.Lock(); order = append(order, tag); mu.Unlock() }
	}
	base := eng.Now()
	// Two owned events bracketing an unowned one inside the same
	// 20ms lookahead window.
	eng.AtOwned(0, base.Add(1*time.Millisecond), record("a"))
	eng.At(base.Add(2*time.Millisecond), record("mid"))
	eng.AtOwned(1, base.Add(3*time.Millisecond), record("b"))

	if n := x.RunFor(time.Second); n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "mid" || order[2] != "b" {
		t.Fatalf("execution order %v, want [a mid b]", order)
	}
	if !eng.Now().Equal(base.Add(time.Second)) {
		t.Fatalf("clock = %v, want %v", eng.Now(), base.Add(time.Second))
	}
}

// TestExecutorZeroLookaheadFallsBackToSerial covers a link model with no
// exploitable lookahead.
func TestExecutorZeroLookaheadFallsBackToSerial(t *testing.T) {
	eng := NewEngine(1)
	net := NewNetwork(eng, LinkModel{})
	x := NewExecutor(net, 4)
	ep := net.Attach("n0", func(*wire.Message) {})
	x.Register(ep)

	ran := 0
	eng.AtOwned(0, eng.Now().Add(time.Millisecond), func() { ran++ })
	eng.AtOwned(0, eng.Now().Add(2*time.Millisecond), func() { ran++ })
	if n := x.RunFor(time.Second); n != 2 || ran != 2 {
		t.Fatalf("ran %d/%d events, want 2/2", n, ran)
	}
}

// TestExecutorCommitPanicsOnSubLookaheadTimer verifies the guard on the
// executor's one documented restriction.
func TestExecutorCommitPanicsOnSubLookaheadTimer(t *testing.T) {
	eng := NewEngine(1)
	net := NewNetwork(eng, LinkModel{LatencyMin: 20 * time.Millisecond, LatencyMax: 20 * time.Millisecond})
	x := NewExecutor(net, 2)
	eps := make([]*Endpoint, 2)
	afters := make([]func(time.Duration, func()), 2)
	for i := range eps {
		eps[i] = net.Attach("n"+string(rune('0'+i)), func(*wire.Message) {})
		x.Register(eps[i])
		afters[i] = x.AfterFunc(eps[i])
	}

	base := eng.Now()
	// Owner 0's event registers a 1ms timer; owner 1 has an event 10ms
	// later in the same window, so the timer would fire between two
	// already-executed events.
	eng.AtOwned(0, base.Add(1*time.Millisecond), func() {
		afters[0](time.Millisecond, func() {})
	})
	eng.AtOwned(1, base.Add(11*time.Millisecond), func() {})

	defer func() {
		if recover() == nil {
			t.Fatal("expected commit to panic on a sub-lookahead timer")
		}
	}()
	x.RunFor(time.Second)
}

// TestExecutorRunOwnersCommitsInOwnerOrder checks the tick-phase
// primitive: sends buffered during a parallel fan-out must hit the
// network in ascending owner order, like the serial loop.
func TestExecutorRunOwnersCommitsInOwnerOrder(t *testing.T) {
	eng := NewEngine(7)
	net := NewNetwork(eng, DefaultWAN)
	x := NewExecutor(net, 4)
	const n = 8
	eps := make([]*Endpoint, n)
	for i := range eps {
		eps[i] = net.Attach("n"+string(rune('0'+i)), func(*wire.Message) {})
		x.Register(eps[i])
	}

	x.RunOwners(func(owner int) {
		msg := &wire.Message{Kind: wire.KindGossipDigest, GossipDigest: &wire.GossipDigest{FromZone: "/z"}}
		if err := eps[owner].Send("n0", msg); err != nil {
			t.Errorf("owner %d send: %v", owner, err)
		}
	})
	sent, _, _ := net.Totals()
	if sent != n {
		t.Fatalf("sent %d messages, want %d", sent, n)
	}
	bytesSent, _ := net.BytesTotals()
	if got := net.SentByKind(wire.KindGossipDigest); got != (KindStats{Msgs: n, Bytes: bytesSent}) {
		t.Fatalf("per-kind ledger after a parallel commit = %+v, want %d msgs / %d bytes", got, n, bytesSent)
	}

	// Determinism: the same fan-out on a fresh engine with the same seed
	// must leave the engine RNG in the same state (commit order fixed),
	// observable via the next latency sample.
	draw := func(seed int64) int64 {
		e := NewEngine(seed)
		nw := NewNetwork(e, DefaultWAN)
		ex := NewExecutor(nw, 3)
		es := make([]*Endpoint, n)
		for i := range es {
			es[i] = nw.Attach("m"+string(rune('0'+i)), func(*wire.Message) {})
			ex.Register(es[i])
		}
		ex.RunOwners(func(owner int) {
			msg := &wire.Message{Kind: wire.KindGossipDigest, GossipDigest: &wire.GossipDigest{FromZone: "/z"}}
			_ = es[owner].Send("m0", msg)
		})
		return e.Rand().Int63()
	}
	if a, b := draw(42), draw(42); a != b {
		t.Fatalf("engine RNG diverged across identical RunOwners fan-outs: %d vs %d", a, b)
	}
}
