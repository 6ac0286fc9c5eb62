package transport

import (
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"newswire/internal/metrics"
	"newswire/internal/wire"
)

// discardConn is a connection whose writes all succeed and go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error)      { return len(b), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestLoopsAllocateNothingPerFrame: in steady state neither transport loop
// allocates for a frame. readLoop's receive buffer goes to the pool and
// back as the pointer the pool holds, and writeLoop's flush hands writev a
// net.Buffers that lives in the peer, not one that escapes per flush.
func TestLoopsAllocateNothingPerFrame(t *testing.T) {
	t.Run("read buffer", func(t *testing.T) {
		if raceEnabled {
			t.Skip("sync.Pool drops a share of Puts under the race detector")
		}
		PutBuf(GetBuf(1500)) // fill the size class
		if n := testing.AllocsPerRun(100, func() { PutBuf(GetBuf(1500)) }); n != 0 {
			t.Errorf("a receive buffer round trip allocates %v objects, want 0", n)
		}
	})
	t.Run("flush", func(t *testing.T) {
		tr := &TCP{opts: TCPOptions{WriteTimeout: time.Second}, flushHist: &metrics.Histogram{}}
		tr.flushHist.SetReservoir(4)
		p := newPeer(tr, "peer:1", discardConn{})
		for i := 0; i < 8; i++ {
			f, err := wire.NewFrame(gossipMsg("/usa"), "self:1")
			if err != nil {
				t.Fatal(err)
			}
			p.batch = append(p.batch, f)
		}
		for i := 0; i < 8; i++ { // size bufs, fill the histogram's reservoir
			if err := p.writeBatch(); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(100, func() { _ = p.writeBatch() }); n != 0 {
			t.Errorf("a flush of %d frames allocates %v objects, want 0", len(p.batch), n)
		}
	})
}

// TestWriterKeepsNoSentFrame: once a peer's frames are on the wire, neither
// the queue's array nor the writer's batch still holds one. A relayed
// forward's header would pin the slab of headers it was carved from, and
// its span an envelope the item table may have evicted.
func TestWriterKeepsNoSentFrame(t *testing.T) {
	var got atomic.Int64
	rx, err := ListenTCP("127.0.0.1:0", func(*wire.Message) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := ListenTCP("127.0.0.1:0", func(*wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	const frames = 300
	for i := 0; i < frames; i++ {
		if err := tx.Send(rx.Addr(), gossipMsg("/usa")); err != nil {
			t.Fatal(err)
		}
	}
	tx.mu.Lock()
	p := tx.peers[rx.Addr()]
	tx.mu.Unlock()
	held := -1
	for deadline := time.Now().Add(5 * time.Second); held != 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if got.Load() < frames {
			continue
		}
		p.mu.Lock() // the writer clears its batch and the queue under the lock
		held = 0
		for _, f := range slices.Concat(p.queue[:cap(p.queue)], p.batch[:cap(p.batch)]) {
			if !f.IsZero() {
				held++
			}
		}
		p.mu.Unlock()
	}
	if got.Load() != frames || held != 0 {
		t.Errorf("%d of %d frames arrived; the sender's writer still holds %d", got.Load(), frames, held)
	}
}
