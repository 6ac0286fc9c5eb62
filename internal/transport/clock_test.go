package transport

import (
	"testing"
	"time"

	"newswire/internal/wire"
)

func TestEstimateOffset(t *testing.T) {
	base := time.Unix(1000, 0)
	cases := []struct {
		name       string
		skew       time.Duration // responder clock − initiator clock
		fwd, back  time.Duration // one-way delays
		wantOffset time.Duration
		wantRTT    time.Duration
	}{
		{"synchronized symmetric", 0, 10 * time.Millisecond, 10 * time.Millisecond, 0, 20 * time.Millisecond},
		{"peer ahead", 2 * time.Second, 5 * time.Millisecond, 5 * time.Millisecond, 2 * time.Second, 10 * time.Millisecond},
		{"peer behind", -700 * time.Millisecond, 15 * time.Millisecond, 15 * time.Millisecond, -700 * time.Millisecond, 30 * time.Millisecond},
		// Asymmetry bounds: with all delay on the forward path the
		// estimate errs by rtt/2.
		{"asymmetric path", 0, 20 * time.Millisecond, 0, 10 * time.Millisecond, 20 * time.Millisecond},
	}
	for _, tc := range cases {
		t1 := base
		t2 := base.Add(tc.fwd).Add(tc.skew) // responder stamps its own clock
		t3 := base.Add(tc.fwd + tc.back)
		offset, rtt := estimateOffset(t1, t2, t3)
		if offset != tc.wantOffset {
			t.Errorf("%s: offset = %v, want %v", tc.name, offset, tc.wantOffset)
		}
		if rtt != tc.wantRTT {
			t.Errorf("%s: rtt = %v, want %v", tc.name, rtt, tc.wantRTT)
		}
	}
}

// TestClockOffsetHandshake runs two real endpoints over loopback and
// waits for the dial-time ping/pong to produce an offset estimate. Both
// ends share one wall clock, so the estimate must be near zero and the
// RTT must be positive.
func TestClockOffsetHandshake(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0", func(*wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0", func(*wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Any send establishes the connection and fires the dial-time probe.
	if err := a.Send(b.Addr(), &wire.Message{
		Kind:         wire.KindGossipDigest,
		GossipDigest: &wire.GossipDigest{FromZone: "/x"},
	}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if e, ok := a.ClockOffset(b.Addr()); ok {
			if d := e.Offset; d < -time.Second || d > time.Second {
				t.Fatalf("loopback offset = %v, want ~0", d)
			}
			if e.RTT <= 0 {
				t.Fatalf("rtt = %v, want > 0", e.RTT)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no clock offset estimated within deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The pong answered a's probe through b's normal send path, which
	// dialed a — so b must have fired its own dial-time probe at a too.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, ok := b.ClockOffset(a.Addr()); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("responder never estimated initiator offset")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClockOffsetKeepsLowestRTT feeds two pongs from one peer, a fast
// one and then a slow one with a different offset: the estimate keeps
// the fast sample's offset until it is older than clockSampleTTL probe
// intervals.
func TestClockOffsetKeepsLowestRTT(t *testing.T) {
	tr, err := ListenTCPWith("127.0.0.1:0", func(*wire.Message) {}, TCPOptions{ClockSyncInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	base := time.Unix(1000, 0)
	// pong is a reply sent at t1 and received rtt later, from a peer whose
	// clock runs skew ahead and stamped it halfway.
	pong := func(t1 time.Time, rtt, skew time.Duration) {
		cs := &wire.ClockSync{T1: t1.UnixNano(), T2: t1.Add(rtt / 2).Add(skew).UnixNano()}
		tr.handleClockPong("peer:1", cs, t1.Add(rtt))
	}
	pong(base, 2*time.Millisecond, 100*time.Millisecond)
	pong(base.Add(time.Second), 40*time.Millisecond, 300*time.Millisecond)
	e, ok := tr.ClockOffset("peer:1")
	if !ok || e.Offset != 100*time.Millisecond || e.RTT != 2*time.Millisecond {
		t.Fatalf("estimate %+v (ok %v), want the 2ms sample's 100ms offset", e, ok)
	}
	// Past clockSampleTTL intervals the kept sample yields to a newer one.
	pong(base.Add(5*time.Second), 40*time.Millisecond, 300*time.Millisecond)
	if e, _ := tr.ClockOffset("peer:1"); e.Offset != 300*time.Millisecond {
		t.Fatalf("estimate %+v after the kept sample aged out, want the 300ms offset", e)
	}
}
