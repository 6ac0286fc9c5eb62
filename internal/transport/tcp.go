package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"newswire/internal/metrics"
	"newswire/internal/wire"
)

// maxFrame bounds a single message frame; anything larger is treated as a
// protocol violation and the connection is dropped.
const maxFrame = 16 << 20

// dialTimeout bounds outbound connection establishment.
const dialTimeout = 5 * time.Second

const (
	// defaultQueueLen bounds each peer's outbound queue in frames. Full
	// queue = drop + counter, per the fire-and-forget policy.
	defaultQueueLen = 1024
	// defaultWriteTimeout bounds one flush so a peer that stops reading
	// cannot pin its writer goroutine forever.
	defaultWriteTimeout = 5 * time.Second
	// maxFlushBatch caps the frames drained per writev, bounding both the
	// batch copy and the bytes put behind one write deadline.
	maxFlushBatch = 256
)

// errClosed is returned by sends on a closed transport.
var errClosed = errors.New("transport: closed")

// ioSync restores the happens-before edge the race detector expects
// across a socket. syscall.Write releases and syscall.Read acquires a
// global sync point, so "peer received my message" orders the sender's
// prior writes before the handler — but the writev path (net.Buffers)
// skips that annotation in the runtime. The writer releases ioSync (Add)
// before each vectored flush and readLoop acquires it (Load) before
// dispatching a frame, re-creating the same edge. Two atomic ops per
// batch/frame; semantics are unchanged without -race.
var ioSync atomic.Int64

// TCPOptions tunes the TCP transport's data path.
type TCPOptions struct {
	// QueueLen bounds each peer's outbound queue in frames; <= 0 means
	// defaultQueueLen.
	QueueLen int
	// WriteTimeout bounds one flush to a peer; <= 0 means
	// defaultWriteTimeout.
	WriteTimeout time.Duration
	// ClockSyncInterval is the period between clock-offset probes to
	// each connected peer (the first fires at dial); <= 0 selects 30s.
	ClockSyncInterval time.Duration
}

// TCP is a Transport over real sockets, for live multi-process clusters
// (cmd/newswired). Frames are 4-byte big-endian length prefixes followed
// by an encoded wire.Message. Each peer gets a bounded outbound queue
// drained by a dedicated writer goroutine that flushes whatever is queued
// in one writev (net.Buffers) — a slow or dead peer can never stall
// sends to anyone else, and syscalls per frame amortize toward zero under
// load. Connections are cached per peer and re-dialed on failure.
type TCP struct {
	ln      net.Listener
	handler Handler
	opts    TCPOptions
	addr    string // cached ln.Addr().String(); stamped into every frame

	mu      sync.Mutex
	peers   map[string]*peer // one writer per outbound peer
	inbound map[net.Conn]bool
	closed  bool

	wg   sync.WaitGroup
	stop chan struct{}

	st        tcpStats
	flushHist *metrics.Histogram

	clockMu      sync.Mutex
	clockOffsets map[string]ClockOffset
}

var (
	_ Transport     = (*TCP)(nil)
	_ FrameSender   = (*TCP)(nil)
	_ MetricsFiller = (*TCP)(nil)
)

// ListenTCP starts an endpoint listening on addr (e.g. "127.0.0.1:0") and
// dispatching inbound messages to h, with default options.
func ListenTCP(addr string, h Handler) (*TCP, error) {
	return ListenTCPWith(addr, h, TCPOptions{})
}

// ListenTCPWith is ListenTCP with explicit options.
func ListenTCPWith(addr string, h Handler, opts TCPOptions) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	if opts.QueueLen <= 0 {
		opts.QueueLen = defaultQueueLen
	}
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = defaultWriteTimeout
	}
	if opts.ClockSyncInterval <= 0 {
		opts.ClockSyncInterval = defaultClockSyncInterval
	}
	t := &TCP{
		ln:        ln,
		handler:   h,
		opts:      opts,
		addr:      ln.Addr().String(),
		peers:     make(map[string]*peer),
		inbound:   make(map[net.Conn]bool),
		stop:      make(chan struct{}),
		flushHist: &metrics.Histogram{},
	}
	t.flushHist.SetReservoir(4096)
	t.wg.Add(2)
	go t.acceptLoop()
	go t.clockLoop()
	return t, nil
}

// Addr returns the listener's concrete address (with the resolved port).
func (t *TCP) Addr() string { return t.addr }

// Send implements Transport: encode msg and enqueue it for delivery. It
// is a thin wrapper over NewFrame + SendFrame, so fan-out callers can
// hold the frame and skip the per-recipient encode.
func (t *TCP) Send(to string, msg *wire.Message) error {
	f, err := t.NewFrame(msg)
	if err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	return t.SendFrame(to, f)
}

// NewFrame implements FrameSender: encode msg once, with this endpoint's
// address stamped as the sender. msg is only read — stamping From into
// the frame instead of mutating msg is what lets one message fan out to N
// peers concurrently without a data race.
func (t *TCP) NewFrame(msg *wire.Message) (wire.Frame, error) {
	return wire.NewFrame(msg, t.addr)
}

// SendFrame implements FrameSender. It enqueues the frame on the peer's
// writer (dialing synchronously if the peer is new, so an unreachable
// address still surfaces as an error) and never blocks on the socket: a
// full queue drops the frame and counts it.
func (t *TCP) SendFrame(to string, f wire.Frame) error {
	if f.PayloadLen() > maxFrame {
		return fmt.Errorf("transport: message of %d bytes exceeds frame limit", f.PayloadLen())
	}
	for attempt := 0; ; attempt++ {
		p, err := t.peer(to)
		if err != nil {
			return err
		}
		switch p.enqueue(f) {
		case enqueueOK:
			return nil
		case enqueueFull:
			// Fire-and-forget backpressure: drop, count, never block the
			// caller. The protocols above tolerate loss.
			t.st.queueFullDrops.Add(1)
			return nil
		case enqueueClosed:
			// The peer tore down between lookup and enqueue; retry once
			// on a fresh connection.
			if attempt == 0 {
				continue
			}
			t.st.connDrops.Add(1)
			return nil
		}
	}
}

// peer returns the live peer for to, dialing and starting its writer if
// none exists. Dialing happens outside the transport lock so connection
// establishment never stalls sends to connected peers.
func (t *TCP) peer(to string) (*peer, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errClosed
	}
	if p, ok := t.peers[to]; ok {
		t.mu.Unlock()
		return p, nil
	}
	t.mu.Unlock()

	t.st.dials.Add(1)
	c, err := net.DialTimeout("tcp", to, dialTimeout)
	if err != nil {
		t.st.dialErrors.Add(1)
		return nil, fmt.Errorf("transport: dial %s: %w", to, err)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return nil, errClosed
	}
	if existing, ok := t.peers[to]; ok {
		// Lost the race; use the existing peer.
		t.mu.Unlock()
		c.Close()
		return existing, nil
	}
	// The peer outlives the call: to may view a gossiped row's buffer
	// (DESIGN.md §8, "Row ownership"), which the map must not keep.
	to = strings.Clone(to)
	p := newPeer(t, to, c)
	t.peers[to] = p
	t.wg.Add(1)
	t.mu.Unlock()
	go p.writeLoop()
	// First clock probe at connection establishment, so offsets are
	// usable within one round trip of meeting a peer. Enqueued directly —
	// going through Send here would re-enter peer().
	if ping, err := t.NewFrame(&wire.Message{
		Kind:      wire.KindClockPing,
		ClockSync: &wire.ClockSync{Seq: clockSeq.Add(1), T1: time.Now().UnixNano()},
	}); err == nil {
		p.enqueue(ping)
	}
	return p, nil
}

func (t *TCP) removePeer(p *peer) {
	t.mu.Lock()
	if t.peers[p.addr] == p {
		delete(t.peers, p.addr)
	}
	t.mu.Unlock()
}

// TransportStats returns a snapshot of the data-path counters.
func (t *TCP) TransportStats() Stats { return t.st.snapshot() }

// FlushBatchSizes exposes the writev batch-size histogram (frames per
// flush).
func (t *TCP) FlushBatchSizes() *metrics.Histogram { return t.flushHist }

// FillMetrics mirrors the transport's counters into reg under
// transport_* names. Counters are synced, not added, so repeated calls
// never double count.
func (t *TCP) FillMetrics(reg *metrics.Registry) {
	s := t.st.snapshot()
	reg.Counter("transport_frames_sent").SyncTo(s.FramesSent)
	reg.Counter("transport_bytes_sent").SyncTo(s.BytesSent)
	reg.Counter("transport_frames_received").SyncTo(s.FramesReceived)
	reg.Counter("transport_bytes_received").SyncTo(s.BytesReceived)
	reg.Counter("transport_dials").SyncTo(s.Dials)
	reg.Counter("transport_dial_errors").SyncTo(s.DialErrors)
	reg.Counter("transport_stale_retries").SyncTo(s.StaleRetries)
	reg.Counter("transport_queue_full_drops").SyncTo(s.QueueFullDrops)
	reg.Counter("transport_conn_drops").SyncTo(s.ConnDrops)
	reg.Counter("transport_flush_batches").SyncTo(s.FlushBatches)
	reg.Gauge("transport_queue_high_water").Set(float64(s.QueueHighWater))
	reg.RegisterHistogram("transport_flush_batch_frames", t.flushHist)
	for addr, e := range t.ClockOffsets() {
		reg.GaugeWith("transport_clock_offset_seconds", metrics.L("peer", addr)).
			Set(e.Offset.Seconds())
	}
}

// Close stops the listener, shuts down every peer writer, closes all
// connections and waits for the goroutines to exit.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.stop)
	peers := make([]*peer, 0, len(t.peers))
	for to, p := range t.peers {
		peers = append(peers, p)
		delete(t.peers, to)
	}
	// Inbound connections must be closed too, or their read goroutines
	// would block in ReadFull until the remote side goes away and
	// wg.Wait below would hang.
	for c := range t.inbound {
		c.Close()
		delete(t.inbound, c)
	}
	t.mu.Unlock()

	for _, p := range peers {
		t.st.connDrops.Add(int64(p.shutdown()))
	}
	err := t.ln.Close()
	t.wg.Wait()
	return err
}

// --- per-peer writer ---

type enqueueResult uint8

const (
	enqueueOK enqueueResult = iota
	enqueueFull
	enqueueClosed
)

// peer is one outbound neighbor: a bounded frame queue drained by a
// dedicated writer goroutine. Queued frames are shared references
// (wire.Frame), so fan-out of one message to many peers queues the same
// bytes N times, not N copies.
type peer struct {
	t    *TCP
	addr string

	mu     sync.Mutex
	cond   sync.Cond
	queue  []wire.Frame
	head   int // index of the first undrained frame in queue
	conn   net.Conn
	closed bool

	// batch, bufs and unsent are writer-goroutine scratch, reused across
	// flushes. WriteTo consumes the net.Buffers it is called on, so it
	// runs on unsent, a copy of bufs' header: bufs keeps its backing
	// array, and a field, unlike a local, costs no allocation per flush.
	batch  []wire.Frame
	bufs   net.Buffers
	unsent net.Buffers
}

func newPeer(t *TCP, addr string, conn net.Conn) *peer {
	p := &peer{t: t, addr: addr, conn: conn}
	p.cond.L = &p.mu
	return p
}

// enqueue appends f to the outbound queue, never blocking: a full queue
// or a closed peer reports back for the caller to count the drop.
func (p *peer) enqueue(f wire.Frame) enqueueResult {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return enqueueClosed
	}
	depth := len(p.queue) - p.head
	if depth >= p.t.opts.QueueLen {
		p.mu.Unlock()
		return enqueueFull
	}
	p.queue = append(p.queue, f)
	p.mu.Unlock()
	p.cond.Signal()
	p.t.st.observeQueueDepth(depth + 1)
	return enqueueOK
}

// writeLoop drains the queue: wait for frames, take up to maxFlushBatch,
// flush them in one writev, repeat. There is no idle buffering — every
// drained batch goes straight to the socket, so the last frame of a burst
// is flushed as promptly as the first. Neither the queue's array nor the
// batch keeps a frame once it is taken and sent: a relayed forward's
// header pins the slab it was carved from, and its span an envelope the
// item table may have evicted since.
func (p *peer) writeLoop() {
	defer p.t.wg.Done()
	for {
		p.mu.Lock()
		clear(p.batch)
		for len(p.queue) == p.head && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		n := len(p.queue) - p.head
		if n > maxFlushBatch {
			n = maxFlushBatch
		}
		p.batch = append(p.batch[:0], p.queue[p.head:p.head+n]...)
		clear(p.queue[p.head : p.head+n])
		p.head += n
		if p.head == len(p.queue) {
			// Fully drained: reset so the backing array is reused.
			p.queue = p.queue[:0]
			p.head = 0
		}
		p.mu.Unlock()

		if !p.flush() {
			// Connection is gone for good. Remove the peer first so the
			// next Send dials fresh, then count everything undelivered.
			p.t.st.connDrops.Add(int64(len(p.batch)))
			p.t.removePeer(p)
			p.t.st.connDrops.Add(int64(p.shutdown()))
			return
		}
	}
}

// flush writes the current batch in one writev, redialing once on failure
// (the cached connection may be stale: the peer restarted, or an earlier
// deadline expired mid-frame and poisoned the stream). A frame
// half-written before the failure is truncated on the old connection —
// the receiver drops the torn frame with the conn — and resent whole on
// the new one.
func (p *peer) flush() bool {
	if p.writeBatch() == nil {
		return true
	}
	p.t.st.staleRetries.Add(1)
	p.t.st.dials.Add(1)
	c, err := net.DialTimeout("tcp", p.addr, dialTimeout)
	if err != nil {
		p.t.st.dialErrors.Add(1)
		return false
	}
	if !p.swapConn(c) {
		return false
	}
	return p.writeBatch() == nil
}

func (p *peer) writeBatch() error {
	p.mu.Lock()
	conn := p.conn
	closed := p.closed
	p.mu.Unlock()
	if closed || conn == nil {
		return errClosed
	}
	p.bufs = p.bufs[:0]
	total := 0
	for _, f := range p.batch {
		p.bufs = f.AppendParts(p.bufs) // a relayed forward is two parts
		total += f.Len()
	}
	// A peer that stops reading must not pin this writer forever: bound
	// the flush.
	_ = conn.SetWriteDeadline(time.Now().Add(p.t.opts.WriteTimeout))
	ioSync.Add(1) // release: see ioSync
	// p.batch keeps the frames intact for the stale retry.
	p.unsent = p.bufs
	_, err := p.unsent.WriteTo(conn)
	clear(p.bufs) // a retry rebuilds them from p.batch
	if err != nil {
		return err
	}
	p.t.st.framesSent.Add(int64(len(p.batch)))
	p.t.st.bytesSent.Add(int64(total))
	p.t.st.flushBatches.Add(1)
	p.t.flushHist.Observe(float64(len(p.batch)))
	return nil
}

// swapConn installs a freshly dialed connection, closing the old one. It
// refuses (and closes c) if the peer was shut down meanwhile.
func (p *peer) swapConn(c net.Conn) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return false
	}
	old := p.conn
	p.conn = c
	p.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return true
}

// shutdown marks the peer closed, closes its connection, wakes the writer
// and returns the number of frames still queued (now dropped).
// Idempotent.
func (p *peer) shutdown() int {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0
	}
	p.closed = true
	n := len(p.queue) - p.head
	p.queue, p.head = nil, 0
	if p.conn != nil {
		p.conn.Close()
	}
	p.mu.Unlock()
	p.cond.Broadcast()
	return n
}

// --- inbound path ---

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	var hdr [wire.FramePrefixLen]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(hdr[:])
		if size > maxFrame {
			return
		}
		// Pooled receive buffer: Decode copies out everything it keeps, so
		// the buffer is recyclable the moment it returns.
		buf := GetBuf(int(size))
		if _, err := io.ReadFull(conn, *buf); err != nil {
			PutBuf(buf)
			return
		}
		msg, err := wire.Decode(*buf)
		PutBuf(buf)
		if err != nil {
			// Malformed frame: drop the connection, not the process.
			return
		}
		t.st.framesReceived.Add(1)
		t.st.bytesReceived.Add(int64(size) + wire.FramePrefixLen)
		// Clock-sync frames are transport-internal: answer or absorb them
		// here, never surfacing them to the node's handler.
		switch msg.Kind {
		case wire.KindClockPing:
			t.handleClockPing(msg.From, msg.ClockSync)
			continue
		case wire.KindClockPong:
			t.handleClockPong(msg.From, msg.ClockSync, time.Now())
			continue
		}
		_ = ioSync.Load() // acquire: see ioSync
		t.handler(msg)
	}
}
