package transport

import (
	"net"
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
