package sim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"newswire/internal/transport"
	"newswire/internal/wire"
)

// LinkModel describes the behaviour of every link in the simulated
// network. Latency is sampled uniformly in [LatencyMin, LatencyMax];
// LossRate is the independent per-message drop probability.
type LinkModel struct {
	LatencyMin time.Duration
	LatencyMax time.Duration
	LossRate   float64
}

// DefaultWAN is a wide-area link model plausible for 2002-era consumer
// Internet paths: 20–180 ms one-way latency, 1% loss.
var DefaultWAN = LinkModel{
	LatencyMin: 20 * time.Millisecond,
	LatencyMax: 180 * time.Millisecond,
	LossRate:   0.01,
}

// EndpointStats counts one endpoint's traffic. Experiment E4 reads these
// to compare publisher egress under NewsWire against direct unicast.
type EndpointStats struct {
	MsgsSent      int64
	BytesSent     int64
	MsgsReceived  int64
	BytesReceived int64
}

// Network is the simulated network: a set of addressable endpoints joined
// by a shared link model, with crash-stop failure and partition injection.
// It is driven entirely by the owning Engine and must only be used from
// simulator callbacks (single-goroutine discipline); the mutex exists only
// so misuse is detectable rather than silently racy.
type Network struct {
	eng  *Engine
	link LinkModel

	mu        sync.Mutex
	endpoints map[string]*Endpoint
	crashed   map[string]bool
	blocked   map[linkKey]bool
	lossOvr   map[linkKey]float64
	stats     map[string]*EndpointStats

	// Totals across all endpoints.
	totalSent       int64
	totalDelivered  int64
	totalDropped    int64
	totalBytesSent  int64
	totalBytesDeliv int64
	// sentByKind splits totalSent and totalBytesSent by message kind.
	sentByKind [wire.KindClockPong + 1]KindStats
}

// KindStats counts the messages of one kind handed to the network, and
// their estimated wire bytes, whether or not they were delivered.
type KindStats struct {
	Msgs  int64
	Bytes int64
}

// add counts one message. Callers hold the network mutex.
func (k *KindStats) add(size int64) {
	k.Msgs++
	k.Bytes += size
}

type linkKey struct{ from, to string }

// NewNetwork returns a network attached to eng with the given link model.
func NewNetwork(eng *Engine, link LinkModel) *Network {
	return &Network{
		eng:       eng,
		link:      link,
		endpoints: make(map[string]*Endpoint),
		crashed:   make(map[string]bool),
		blocked:   make(map[linkKey]bool),
		lossOvr:   make(map[linkKey]float64),
		stats:     make(map[string]*EndpointStats),
	}
}

// errClosed is returned by Send on a closed endpoint.
var errClosed = errors.New("sim: endpoint closed")

// Endpoint is one node's attachment to the simulated network.
type Endpoint struct {
	net     *Network
	addr    string
	handler transport.Handler
	closed  bool

	// Parallel-executor registration (see parallel.go). owner tags this
	// endpoint's delivery events; exec carries the effect sink used to
	// buffer sends during parallel windows. Both are set once, before the
	// simulation runs.
	owner int
	exec  *execNode
}

var _ transport.Transport = (*Endpoint)(nil)

// Attach registers an endpoint for addr with the given inbound handler.
// Re-attaching an address replaces the previous endpoint (a restarted
// node).
func (n *Network) Attach(addr string, h transport.Handler) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep := &Endpoint{net: n, addr: addr, handler: h, owner: noOwner}
	n.endpoints[addr] = ep
	if n.stats[addr] == nil {
		n.stats[addr] = &EndpointStats{}
	}
	return ep
}

// Addr implements transport.Transport.
func (ep *Endpoint) Addr() string { return ep.addr }

// Close implements transport.Transport.
func (ep *Endpoint) Close() error {
	ep.net.mu.Lock()
	defer ep.net.mu.Unlock()
	ep.closed = true
	if ep.net.endpoints[ep.addr] == ep {
		delete(ep.net.endpoints, ep.addr)
	}
	return nil
}

// Send implements transport.Transport. The message is delivered to the
// destination's handler after a sampled link latency, unless the link
// drops it, either side is crashed, or the link is blocked by a partition.
//
// When the sending node is executing inside a parallel window (see
// parallel.go), the send is buffered as an effect and committed through
// commitSend at commit, in canonical event order; loss and latency are
// sampled only then, keeping the engine RNG stream serial-identical.
func (ep *Endpoint) Send(to string, msg *wire.Message) error {
	n := ep.net
	var sink *[]effect
	if ep.exec != nil {
		sink = ep.exec.sink
	}
	if sink == nil {
		n.mu.Lock()
		defer n.mu.Unlock()
	}
	if ep.closed {
		return errClosed
	}
	if err := msg.Validate(); err != nil {
		return fmt.Errorf("sim: send: %w", err)
	}
	// A message may be sent again — a retry resends its forward's message
	// — while a receiver of an earlier copy reads it: stamp only when the
	// stamp changes, so a resend does not write.
	if msg.From != ep.addr {
		msg.From = ep.addr
	}
	// Inside a window this runs on the worker, without the lock: the
	// wire-size estimate dominates commit cost, and the fault maps are
	// frozen while a window is in flight (they are only mutated by
	// unowned events, which never share a window), so reading them
	// unlocked is race-free and yields the value commit time would read.
	eff := effect{
		ep:         ep,
		to:         to,
		msg:        msg,
		size:       int64(msg.EstimateSize()),
		lossRate:   n.link.LossRate,
		preDropped: n.crashed[ep.addr] || n.crashed[to] || n.blocked[linkKey{ep.addr, to}],
	}
	if ovr, ok := n.lossOvr[linkKey{ep.addr, to}]; ok {
		eff.lossRate = ovr
	}
	if sink != nil {
		*sink = append(*sink, eff)
		return nil
	}
	n.commitSend(&eff, n.eng.clock.Now())
	return nil
}

// commitSend counts a send effect sent at virtual time at, samples its
// loss and latency from the engine RNG, and schedules its delivery, tagged
// with the destination's executor owner (if registered) so it is eligible
// for parallel windows. Both the serial Send and the parallel executor's
// commit go through here, with n.mu held.
func (n *Network) commitSend(eff *effect, at time.Time) {
	st := n.stats[eff.ep.addr]
	st.MsgsSent++
	st.BytesSent += eff.size
	n.totalSent++
	n.totalBytesSent += eff.size
	n.sentByKind[eff.msg.Kind].add(eff.size)
	if eff.preDropped || eff.lossRate > 0 && n.eng.rng.Float64() < eff.lossRate {
		n.totalDropped++
		return
	}
	latency := n.link.LatencyMin
	if span := n.link.LatencyMax - n.link.LatencyMin; span > 0 {
		latency += time.Duration(n.eng.rng.Int63n(int64(span)))
	}
	dstOwner := noOwner
	if dst, ok := n.endpoints[eff.to]; ok {
		dstOwner = dst.owner
	}
	n.eng.scheduleDelivery(dstOwner, at.Add(latency), n, eff.to, eff.msg, eff.size)
}

// deliver is the work of a delivery event (event.run): receiver stats,
// then handler dispatch. commitSend schedules it, for the serial and the
// parallel path alike.
func (n *Network) deliver(to string, msg *wire.Message, size int64) {
	n.mu.Lock()
	dst, ok := n.endpoints[to]
	crashed := n.crashed[to]
	if ok && !crashed {
		rst := n.stats[to]
		rst.MsgsReceived++
		rst.BytesReceived += size
		n.totalDelivered++
		n.totalBytesDeliv += size
	} else {
		n.totalDropped++
	}
	n.mu.Unlock()
	if ok && !crashed {
		dst.handler(msg)
	}
}

// Crash marks addr as failed: all its traffic (including messages already
// in flight toward it) is dropped until Restore.
func (n *Network) Crash(addr string) {
	n.mu.Lock()
	n.crashed[addr] = true
	n.mu.Unlock()
}

// CrashAfter schedules a crash of addr once d of virtual time has
// elapsed. With d shorter than the link latency this crashes a node
// *between* transmitting a message and the ack coming back — the
// crash-during-forward fault the reliable multicast layer must survive.
func (n *Network) CrashAfter(addr string, d time.Duration) {
	n.eng.After(d, func() { n.Crash(addr) })
}

// Restore clears a crash.
func (n *Network) Restore(addr string) {
	n.mu.Lock()
	delete(n.crashed, addr)
	n.mu.Unlock()
}

// Crashed reports whether addr is currently crashed.
func (n *Network) Crashed(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[addr]
}

// Block severs the directed link from -> to (half a partition).
func (n *Network) Block(from, to string) {
	n.mu.Lock()
	n.blocked[linkKey{from, to}] = true
	n.mu.Unlock()
}

// Unblock restores the directed link.
func (n *Network) Unblock(from, to string) {
	n.mu.Lock()
	delete(n.blocked, linkKey{from, to})
	n.mu.Unlock()
}

// Partition blocks every link between the two node sets, both directions.
func (n *Network) Partition(a, b []string) {
	n.mu.Lock()
	for _, x := range a {
		for _, y := range b {
			n.blocked[linkKey{x, y}] = true
			n.blocked[linkKey{y, x}] = true
		}
	}
	n.mu.Unlock()
}

// PartitionOneWay blocks every link from a-side to b-side while leaving
// the reverse direction intact — an asymmetric partition. Under it, data
// from a still reaches b but acks from b back to a are lost, which is the
// worst case for an ack/retry protocol: every forward looks failed to the
// sender even though it arrived.
func (n *Network) PartitionOneWay(a, b []string) {
	n.mu.Lock()
	for _, x := range a {
		for _, y := range b {
			n.blocked[linkKey{x, y}] = true
		}
	}
	n.mu.Unlock()
}

// HealOneWay removes the directed blocks from a-side to b-side.
func (n *Network) HealOneWay(a, b []string) {
	n.mu.Lock()
	for _, x := range a {
		for _, y := range b {
			delete(n.blocked, linkKey{x, y})
		}
	}
	n.mu.Unlock()
}

// SetLossRate replaces the global LinkModel loss rate for every link at
// once — the knob behind loss-ramp chaos scenarios. Per-link overrides
// installed with SetLinkLoss keep taking precedence. Like the other
// fault mutators it must only be called between executor windows (or
// from unowned engine events): the parallel send fast path reads the
// link model without the lock while a window is in flight.
func (n *Network) SetLossRate(rate float64) {
	n.mu.Lock()
	n.link.LossRate = rate
	n.mu.Unlock()
}

// LossRate returns the current global per-message loss probability.
func (n *Network) LossRate() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.link.LossRate
}

// SetLinkLoss overrides the loss rate of the directed link from -> to,
// replacing the global LinkModel rate for that link only. Rate 0 makes
// the link lossless; use ClearLinkLoss to return to the model default.
func (n *Network) SetLinkLoss(from, to string, rate float64) {
	n.mu.Lock()
	n.lossOvr[linkKey{from, to}] = rate
	n.mu.Unlock()
}

// ClearLinkLoss removes a per-link loss override.
func (n *Network) ClearLinkLoss(from, to string) {
	n.mu.Lock()
	delete(n.lossOvr, linkKey{from, to})
	n.mu.Unlock()
}

// Heal removes every block between the two node sets.
func (n *Network) Heal(a, b []string) {
	n.mu.Lock()
	for _, x := range a {
		for _, y := range b {
			delete(n.blocked, linkKey{x, y})
			delete(n.blocked, linkKey{y, x})
		}
	}
	n.mu.Unlock()
}

// Stats returns a copy of the per-endpoint traffic counters for addr.
func (n *Network) Stats(addr string) EndpointStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if st := n.stats[addr]; st != nil {
		return *st
	}
	return EndpointStats{}
}

// Totals returns (sent, delivered, dropped) message counts across the
// whole network.
func (n *Network) Totals() (sent, delivered, dropped int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.totalSent, n.totalDelivered, n.totalDropped
}

// BytesTotals returns estimated wire bytes (sent, delivered) across the
// whole network. Experiments use it to compare gossip traffic volume
// between protocol variants.
func (n *Network) BytesTotals() (sent, delivered int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.totalBytesSent, n.totalBytesDeliv
}

// SentByKind returns the share of Totals' sent count and BytesTotals' sent
// bytes that messages of the given kind account for: the byte ledger that
// says which protocol a change to the wire should go after.
func (n *Network) SentByKind(kind wire.Kind) KindStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if int(kind) >= len(n.sentByKind) {
		return KindStats{}
	}
	return n.sentByKind[kind]
}
