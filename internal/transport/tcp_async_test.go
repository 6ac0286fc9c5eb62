package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"newswire/internal/wire"
)

// TestTCPSharedMessageFanOutRace is the regression test for the Send
// data race: fanning ONE message out to several peers used to write
// msg.From per send, so concurrent sends of a shared message raced.
// From is now stamped into the frame at encode time; run with -race
// this test proves the source message is never written.
func TestTCPSharedMessageFanOutRace(t *testing.T) {
	hub, err := ListenTCP("127.0.0.1:0", func(*wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	const nPeers = 4
	const perPeer = 32
	cols := make([]*collector, nPeers)
	addrs := make([]string, nPeers)
	for i := range cols {
		cols[i] = newCollector()
		r, err := ListenTCP("127.0.0.1:0", cols[i].handle)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		addrs[i] = r.Addr()
	}

	shared := gossipMsg("/usa/ny")
	shared.From = "left-alone"
	var wg sync.WaitGroup
	for i := 0; i < nPeers; i++ {
		for j := 0; j < perPeer; j++ {
			wg.Add(1)
			go func(to string) {
				defer wg.Done()
				if err := hub.Send(to, shared); err != nil {
					t.Errorf("send: %v", err)
				}
			}(addrs[i])
		}
	}
	wg.Wait()

	for i, col := range cols {
		for _, m := range col.waitFor(t, perPeer) {
			if m.From != hub.Addr() {
				t.Fatalf("receiver %d: From = %q, want the hub address %q", i, m.From, hub.Addr())
			}
		}
	}
	if shared.From != "left-alone" {
		t.Fatalf("fan-out mutated the shared message: From = %q", shared.From)
	}
}

// TestTCPSlowConsumerIsolation jams peer A (a socket that is accepted
// but never read) and checks the core asynchronous-writer guarantees:
// sends to A never block the caller, A's queue stays bounded with the
// overflow dropped and counted, a healthy peer B keeps receiving
// normally the whole time, and Close still terminates promptly.
func TestTCPSlowConsumerIsolation(t *testing.T) {
	// Peer A: accepts connections and never reads a byte.
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lnA.Close()
	var jam struct {
		sync.Mutex
		conns []net.Conn
	}
	go func() {
		for {
			c, err := lnA.Accept()
			if err != nil {
				return
			}
			jam.Lock()
			jam.conns = append(jam.conns, c)
			jam.Unlock()
		}
	}()
	defer func() {
		jam.Lock()
		for _, c := range jam.conns {
			c.Close()
		}
		jam.Unlock()
	}()

	// Peer B: a normal transport endpoint.
	colB := newCollector()
	b, err := ListenTCP("127.0.0.1:0", colB.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const queueLen = 4
	hub, err := ListenTCPWith("127.0.0.1:0", func(*wire.Message) {}, TCPOptions{
		QueueLen:     queueLen,
		WriteTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Jam A with big frames: each is ~256 KiB, far more than the loopback
	// socket buffers absorb, so the writer blocks in writev, the
	// queue fills, and further sends must drop instead of blocking.
	big := &wire.Message{Kind: wire.KindMulticast, Multicast: &wire.Multicast{
		TargetZone: "/", Envelope: wire.ItemEnvelope{
			Publisher: "p", ItemID: "big", Published: time.Unix(0, 0),
			Payload: make([]byte, 256<<10),
		},
	}}
	const bigFrames = 64
	start := time.Now()
	for i := 0; i < bigFrames; i++ {
		if err := hub.Send(lnA.Addr().String(), big); err != nil {
			t.Fatalf("send to jammed peer returned error: %v", err)
		}
	}
	// B stays healthy while A is wedged. Sends are paced just below the
	// writer's drain rate: this test's tiny 4-frame queue is sized to jam
	// on A, not to absorb a same-instant burst of 50.
	const nB = 50
	for i := 0; i < nB; i++ {
		if err := hub.Send(b.Addr(), gossipMsg("/usa/ny")); err != nil {
			t.Fatalf("send to healthy peer: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("sends took %v; a jammed peer must never block the caller", elapsed)
	}
	colB.waitFor(t, nB)

	st := hub.TransportStats()
	if st.QueueFullDrops == 0 {
		t.Errorf("expected queue-full drops on the jammed peer, got none (stats %+v)", st)
	}
	if st.QueueHighWater > queueLen {
		t.Errorf("queue high water %d exceeds the configured bound %d", st.QueueHighWater, queueLen)
	}

	// Close must not wait for the jammed writer's full timeout cascade.
	done := make(chan error, 1)
	go func() { done <- hub.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close hung on a jammed peer")
	}
}

// TestTCPWritevBatchRoundTrip queues one message of every kind on a
// peer's writer before waking it, so the whole set is flushed in a
// single writev, and verifies every frame survives the vectored write
// intact. White-box: it loads the queue directly to make the
// single-batch flush deterministic. The "binary" subtest keeps the name
// it had while a second codec existed.
func TestTCPWritevBatchRoundTrip(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		col := newCollector()
		b, err := ListenTCP("127.0.0.1:0", col.handle)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		a, err := ListenTCP("127.0.0.1:0", func(*wire.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()

		sent := allKindMessages()
		frames := make([]wire.Frame, len(sent))
		for i, m := range sent {
			if frames[i], err = a.NewFrame(m); err != nil {
				t.Fatalf("frame %v: %v", m.Kind, err)
			}
		}

		p, err := a.peer(b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// Load the whole set while the writer sleeps, then wake it once:
		// everything drains as one batch, one writev.
		p.mu.Lock()
		p.queue = append(p.queue, frames...)
		p.mu.Unlock()
		p.cond.Signal()

		got := col.waitFor(t, len(sent))
		for i, m := range got {
			if m.Kind != sent[i].Kind {
				t.Fatalf("frame %d arrived as %v, want %v", i, m.Kind, sent[i].Kind)
			}
			if m.From != a.Addr() {
				t.Fatalf("frame %d: From = %q, want %q", i, m.From, a.Addr())
			}
		}
		env := got[4].Multicast.Envelope
		if env.Key() != "reuters/item-42#1" || string(env.Payload) != "<nitf/>" {
			t.Fatalf("multicast envelope corrupted by vectored write: %+v", env)
		}

		// The dial-time clock probe rides the same queue, and b probes
		// back: its pong dials a fresh b→a connection carrying b's own
		// ping, which a answers with a pong. Wait for that reverse
		// handshake to quiesce so the counters are deterministic:
		// ping + the batch + the reply pong.
		want := int64(len(sent) + 2)
		deadline := time.Now().Add(2 * time.Second)
		st := a.TransportStats()
		for st.FramesSent < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			st = a.TransportStats()
		}
		if st.FramesSent != want {
			t.Errorf("frames sent = %d, want %d (clock ping + batch + reply pong)", st.FramesSent, want)
		}
		if st.FlushBatches > 3 {
			t.Errorf("flush batches = %d, want <= 3 (clock probes, then the whole set in one writev)", st.FlushBatches)
		}
	})
}
