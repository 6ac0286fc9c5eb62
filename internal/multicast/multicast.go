// Package multicast implements the Astrolabe-based application-level
// multicast of paper §5: SendToZone(zone, data) walks the zone hierarchy,
// consulting each zone's aggregated table to find per-child-zone
// representatives (elected by the aggregation function on load and
// availability) and forwarding recursively until leaves deliver to the
// application.
//
// Redundant delivery through k representatives (in the manner of the MIT
// mesh-routing work the paper cites) is supported; duplicates are
// suppressed via the items' unique publisher/ID/revision keys (§9).
// The selective pub/sub forwarding of §6 plugs in through the Filter hook.
//
// With Config.AckTimeout set, forwarding is reliable rather than
// fire-and-forget: every forward requests a MulticastAck, unacknowledged
// forwards are retransmitted with exponential jittered backoff, and on
// each retry the sender re-consults the aggregated zone table and fails
// over to the next-best representative of the child zone (excluding those
// already tried). Retransmits are idempotent — the duplicate-suppression
// log absorbs re-sent copies, so reliability never causes duplicate
// deliveries.
package multicast

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"newswire/internal/astrolabe"
	"newswire/internal/sqlagg"
	"newswire/internal/trace"
	"newswire/internal/transport"
	"newswire/internal/value"
	"newswire/internal/vtime"
	"newswire/internal/wire"
)

// View is the slice of an Astrolabe agent the router needs: the replicated
// zone tables and the agent's own placement. *astrolabe.Agent implements it.
type View interface {
	Addr() string
	Name() string
	ZonePath() string
	Chain() []string
	Table(zone string) ([]astrolabe.Row, bool)
	Row(zone, name string) (astrolabe.Row, bool)
}

var _ View = (*astrolabe.Agent)(nil)

// Filter decides whether an item should be forwarded toward the subtree
// or member described by row (the pub/sub Bloom test of §6). zone is the
// table the row came from. A nil Filter forwards everything (pure
// multicast).
type Filter func(zone string, row astrolabe.Row, env *wire.ItemEnvelope) bool

// Deliver consumes an item that reached this leaf.
type Deliver func(env *wire.ItemEnvelope)

// Config configures a Router.
type Config struct {
	View      View
	Transport transport.Transport
	// RepCount is how many of a child zone's representatives receive
	// each forward (k-redundant dissemination, §9–10). Default 1.
	RepCount int
	// Rand drives representative choice among candidates. Required.
	Rand *rand.Rand
	// Filter gates forwarding per child row (nil forwards everything).
	Filter Filter
	// Deliver receives items for the local application. Required.
	Deliver Deliver
	// MaxHops bounds forwarding depth. Default 64.
	MaxHops int
	// LogSize bounds the in-memory forwarding log (§9). Default 1024.
	LogSize int
	// DedupWindow bounds the duplicate-suppression state: the router
	// remembers this many recent item keys for forwarding and delivery
	// dedup, evicting oldest-first. Older items falling out of the
	// window are instead deduplicated by the end-system cache. Default
	// 8192.
	DedupWindow int
	// VerifyEnvelope, when set, authenticates items before forwarding or
	// delivery; failing envelopes are dropped.
	VerifyEnvelope func(env *wire.ItemEnvelope) error

	// AckTimeout, when positive, makes forwarding reliable: every forward
	// carries an AckSeq, and a forward not acknowledged within the
	// deadline is retransmitted with exponential backoff (doubling per
	// attempt, ±RetryJitter), failing over to the next-best
	// representative from a fresh read of the zone table. 0 keeps the
	// paper's fire-and-forget forwarding.
	AckTimeout time.Duration
	// After schedules a callback after a delay, driving retransmit
	// deadlines. Simulated deployments wire the event engine (so retries
	// happen in virtual time); live nodes may leave it nil to get
	// time.AfterFunc. Only consulted when AckTimeout > 0.
	After func(d time.Duration, fn func())
	// MaxAttempts caps transmissions per reliable forward, the initial
	// send included. Default 4.
	MaxAttempts int
	// RetryJitter is the ± fraction of random spread applied to each
	// backoff delay. Default 0.2.
	RetryJitter float64
	// MaxPendingAcks bounds the retransmit table; forwards beyond it
	// degrade to fire-and-forget rather than queueing unboundedly.
	// Default 8192.
	MaxPendingAcks int

	// OnDeliveryFailure, when set, is called after a reliable forward is
	// abandoned at MaxAttempts, with the item's key and trace ID, the
	// target zone, the last address tried, and the attempt count. Runs on
	// the deadline callback's goroutine; keep it fast.
	OnDeliveryFailure func(key string, traceID uint64, zone, to string, attempts int)

	// Tracer, when non-nil, receives a delivery-trace span for every
	// forwarding decision this router makes (publish, forward, deliver,
	// ack, retry, failover, dedup drop, abandoned forward). Nil disables
	// tracing; the disabled path costs one nil check per would-be span.
	Tracer trace.Recorder
	// Clock stamps trace spans (virtual time in simulation, wall clock
	// live). Defaults to the wall clock; only consulted when Tracer is
	// set.
	Clock vtime.Clock
}

// Stats counts router activity.
type Stats struct {
	Published   int64
	Forwarded   int64
	Delivered   int64
	Duplicates  int64
	FilteredOut int64
	// FilteredZone/FilteredLeaf split FilteredOut by where the summary
	// test said no: child-zone rows on the way down vs. sibling members in
	// the final leaf fan-out. Zone-level filtering is the precision win —
	// a pruned subtree saves every hop below it.
	FilteredZone int64
	FilteredLeaf int64
	BadEnvelope  int64

	// Reliable-forwarding counters (zero when AckTimeout is off).
	AcksSent         int64 // acks this node sent for inbound forwards
	AcksReceived     int64 // acks that resolved a pending forward
	RetriesSent      int64 // retransmissions after an ack deadline
	FailoversTotal   int64 // retries that switched representative
	DeliveryFailures int64 // forwards abandoned after MaxAttempts

	// Chaos-injection counters (ScrambleState).
	DedupScrambled   int64 // dedup-log entries dropped by state scrambling
	PendingScrambled int64 // pending reliable forwards dropped by scrambling
}

// LogEntry records one forwarding decision (§9's forwarder log).
type LogEntry struct {
	Key   string
	Zone  string
	Dests []string
}

// Router implements SendToZone and the forwarding component of a node.
type Router struct {
	cfg  Config
	view View
	rq   *retransmitQueue // nil when AckTimeout is off
	// frames, when non-nil, is the transport's encode-once fan-out path:
	// one wire.Frame shared by reference across every recipient of a
	// fan-out. Set only when forwarding is fire-and-forget: acked forwards
	// carry per-destination AckSeqs, so they cannot share an encoding.
	frames transport.FrameSender

	mu        sync.Mutex
	seen      map[string]map[string]bool // item key -> zones handled
	seenOrder []string                   // insertion order for eviction
	delivered map[string]bool            // item key -> delivered locally
	dlvOrder  []string
	log       []LogEntry
	logNext   int
	stats     Stats
	preds     map[string]*sqlagg.Predicate
}

// NewRouter validates cfg and returns a router.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.View == nil {
		return nil, fmt.Errorf("multicast: view required")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("multicast: transport required")
	}
	if cfg.Rand == nil {
		return nil, fmt.Errorf("multicast: rand required")
	}
	if cfg.Deliver == nil {
		return nil, fmt.Errorf("multicast: deliver callback required")
	}
	if cfg.RepCount <= 0 {
		cfg.RepCount = 1
	}
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = 64
	}
	if cfg.LogSize <= 0 {
		cfg.LogSize = 1024
	}
	if cfg.DedupWindow <= 0 {
		cfg.DedupWindow = 8192
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.RetryJitter <= 0 {
		cfg.RetryJitter = 0.2
	}
	if cfg.MaxPendingAcks <= 0 {
		cfg.MaxPendingAcks = 8192
	}
	if cfg.AckTimeout > 0 && cfg.After == nil {
		cfg.After = func(d time.Duration, fn func()) { time.AfterFunc(d, fn) }
	}
	if cfg.Clock == nil {
		cfg.Clock = vtime.Real{}
	}
	r := &Router{
		cfg:       cfg,
		view:      cfg.View,
		seen:      make(map[string]map[string]bool),
		delivered: make(map[string]bool),
		preds:     make(map[string]*sqlagg.Predicate),
	}
	if cfg.AckTimeout > 0 {
		r.rq = newRetransmitQueue(cfg.MaxPendingAcks)
	} else if fs, ok := cfg.Transport.(transport.FrameSender); ok {
		// The simulated transport passes messages by reference and does
		// not implement FrameSender, so this stays nil there and the
		// deterministic scheduler sees the exact same Send sequence.
		r.frames = fs
	}
	return r, nil
}

// traceSpan stamps and records one delivery-trace span. Callers must
// check r.cfg.Tracer != nil first, so the disabled path pays exactly that
// nil comparison and never builds a span (or an envelope key string).
func (r *Router) traceSpan(s trace.Span) {
	s.Node = r.view.Addr()
	s.At = r.cfg.Clock.Now()
	r.cfg.Tracer.Record(s)
}

// Stats returns a copy of the router's counters.
func (r *Router) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Log returns a copy of the forwarding log, oldest first.
func (r *Router) Log() []LogEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]LogEntry, 0, len(r.log))
	if len(r.log) == r.cfg.LogSize {
		out = append(out, r.log[r.logNext:]...)
	}
	out = append(out, r.log[:r.logNext]...)
	return out
}

// Publish injects an item at this node, disseminating it to every
// subscribed leaf under scope ("" or "/" means the whole system —
// SendToZone with the root zone, §5).
func (r *Router) Publish(env wire.ItemEnvelope, scope string) error {
	if scope == "" {
		scope = astrolabe.RootZone
	}
	if err := astrolabe.ValidateZonePath(scope); err != nil {
		return err
	}
	env.ScopeZone = scope
	r.mu.Lock()
	r.stats.Published++
	r.mu.Unlock()
	// The trace ID is a pure function of the envelope key, so stamping it
	// unconditionally keeps traced and untraced runs byte-identical on the
	// wire while letting spans from different processes join on it.
	key := env.Key()
	tid := trace.DeriveTraceID(key)
	if r.cfg.Tracer != nil {
		r.traceSpan(trace.Span{Kind: trace.KindPublish, Key: key, TraceID: tid, Zone: scope})
	}
	r.route(&wire.Multicast{TargetZone: scope, TraceID: tid, Envelope: env})
	return nil
}

// HandleMessage processes an inbound multicast forward or ack. Other
// message kinds are ignored.
func (r *Router) HandleMessage(msg *wire.Message) {
	if msg.Kind == wire.KindMulticastAck && msg.MulticastAck != nil {
		r.handleAck(msg.MulticastAck)
		return
	}
	if msg.Kind != wire.KindMulticast || msg.Multicast == nil {
		return
	}
	m := msg.Multicast
	if m.Hops > r.cfg.MaxHops {
		return
	}
	if r.cfg.VerifyEnvelope != nil {
		if err := r.cfg.VerifyEnvelope(&m.Envelope); err != nil {
			r.mu.Lock()
			r.stats.BadEnvelope++
			r.mu.Unlock()
			// No ack: a forward this node discards as unverifiable was
			// not delivered, and the sender should not believe it was.
			return
		}
	}
	// Acknowledge before the dedup check: a retransmitted copy of an
	// already-handled forward still needs its ack (the first one may have
	// been lost), and the duplicate-suppression log below keeps the
	// retransmit idempotent.
	if m.AckSeq != 0 && msg.From != "" {
		r.mu.Lock()
		r.stats.AcksSent++
		r.mu.Unlock()
		ack := &ackMessage{ack: wire.MulticastAck{
			Seq:        m.AckSeq,
			Key:        m.Envelope.Key(),
			TargetZone: m.TargetZone,
		}}
		ack.msg = wire.Message{Kind: wire.KindMulticastAck, MulticastAck: &ack.ack}
		_ = r.cfg.Transport.Send(msg.From, &ack.msg)
	}
	if m.Deliver {
		r.deliverLocal(m.TraceID, &m.Envelope)
		return
	}
	r.route(m)
}

// ackMessage is an ack's one allocation: the message and its payload.
type ackMessage struct {
	msg wire.Message
	ack wire.MulticastAck
}

// handleAck resolves the pending forward the ack confirms; late, stale or
// mismatched acks are ignored.
func (r *Router) handleAck(a *wire.MulticastAck) {
	if r.rq == nil {
		return
	}
	if p := r.rq.ack(a.Seq, a.Key); p != nil {
		r.mu.Lock()
		r.stats.AcksReceived++
		r.mu.Unlock()
		if r.cfg.Tracer != nil {
			r.traceSpan(trace.Span{
				Kind: trace.KindAck, Key: a.Key, TraceID: p.msg.TraceID,
				Zone: a.TargetZone, To: p.addr, Attempt: p.attempt,
			})
		}
	}
}

// route fans the item out for the subtree rooted at m.TargetZone.
func (r *Router) route(m *wire.Multicast) {
	key := m.Envelope.Key()
	target := m.TargetZone

	// Forwarding dedup: handle each (item, zone) pair once per node, so
	// k-redundant parents don't multiply traffic exponentially.
	r.mu.Lock()
	zones := r.seen[key]
	if zones == nil {
		zones = make(map[string]bool)
		r.seen[key] = zones
		r.seenOrder = append(r.seenOrder, key)
		for len(r.seenOrder) > r.cfg.DedupWindow {
			delete(r.seen, r.seenOrder[0])
			r.seenOrder = r.seenOrder[1:]
		}
	}
	if zones[target] {
		r.stats.Duplicates++
		r.mu.Unlock()
		if r.cfg.Tracer != nil {
			r.traceSpan(trace.Span{
				Kind: trace.KindDedupDrop, Key: key, TraceID: m.TraceID,
				Zone: target, Hop: m.Hops, Note: "forward-dup",
			})
		}
		return
	}
	zones[target] = true
	r.mu.Unlock()

	chain := r.view.Chain()
	onChain := false
	for _, z := range chain {
		if z == target {
			onChain = true
			break
		}
	}
	if !onChain {
		// The target is not on our chain: route toward it through the
		// deepest chain zone that contains it (publishing into a remote
		// zone, §8).
		r.routeToward(m)
		return
	}

	if target == r.view.ZonePath() {
		r.fanOutLeafZone(m)
		return
	}
	r.fanOutChildZones(m)
}

// routeToward sends m to representatives of the remote subtree containing
// TargetZone.
func (r *Router) routeToward(m *wire.Multicast) {
	chain := r.view.Chain()
	// Deepest chain zone that contains the target.
	var anchor string
	for _, z := range chain {
		if astrolabe.ZoneContains(z, m.TargetZone) {
			anchor = z
		}
	}
	if anchor == "" {
		return
	}
	child, ok := astrolabe.ChildToward(anchor, m.TargetZone)
	if !ok {
		return
	}
	row, ok := r.view.Row(anchor, astrolabe.ZoneName(child))
	if !ok {
		return
	}
	r.forwardToRow(anchor, row, m, m.TargetZone)
}

// fanOutChildZones handles a target that is a proper ancestor of this
// node's leaf zone: consult the target's table and forward per child.
func (r *Router) fanOutChildZones(m *wire.Multicast) {
	rows, ok := r.view.Table(m.TargetZone)
	if !ok {
		return
	}
	ownChild, _ := astrolabe.ChildToward(m.TargetZone, r.view.ZonePath())
	ownName := astrolabe.ZoneName(ownChild)

	for _, row := range rows {
		childZone := astrolabe.JoinZone(m.TargetZone, row.Name)
		if !r.passesFilter(m.TargetZone, row, &m.Envelope) {
			r.mu.Lock()
			r.stats.FilteredOut++
			r.stats.FilteredZone++
			r.mu.Unlock()
			continue
		}
		if row.Name == ownName {
			// We are inside this child: recurse locally instead of
			// taking a network hop.
			r.route(&wire.Multicast{
				TargetZone: childZone,
				Hops:       m.Hops,
				TraceID:    m.TraceID,
				Envelope:   m.Envelope,
			})
			continue
		}
		r.forwardToRow(m.TargetZone, row, m, childZone)
	}
}

// fanOutLeafZone handles a target equal to this node's leaf zone: deliver
// locally and send final-delivery copies to the other subscribed members.
func (r *Router) fanOutLeafZone(m *wire.Multicast) {
	rows, ok := r.view.Table(m.TargetZone)
	if !ok {
		return
	}
	// With a frame-capable transport the deliver-copies are identical for
	// every member, so collect the recipients and encode once.
	var fanAddrs []string
	for _, row := range rows {
		if !r.passesFilter(m.TargetZone, row, &m.Envelope) {
			r.mu.Lock()
			r.stats.FilteredOut++
			r.stats.FilteredLeaf++
			r.mu.Unlock()
			continue
		}
		if row.Name == r.view.Name() {
			r.deliverLocal(m.TraceID, &m.Envelope)
			continue
		}
		addr, ok := row.Attrs[astrolabe.AttrAddr].AsString()
		if !ok {
			continue
		}
		// Interned: the forwarding log, trace spans and pending forwards
		// outlive the row, and must not keep a gossiped row's buffer
		// (DESIGN.md §8, "Row ownership").
		addr = value.Intern(addr)
		if r.frames != nil {
			fanAddrs = append(fanAddrs, addr)
		} else {
			r.sendTracked(m.TargetZone, row.Name, addr, &wire.Multicast{
				TargetZone: m.TargetZone,
				Hops:       m.Hops + 1,
				Deliver:    true,
				TraceID:    m.TraceID,
				Envelope:   m.Envelope,
			})
		}
		r.logForward(m.Envelope.Key(), m.TargetZone, []string{addr})
	}
	if len(fanAddrs) > 0 {
		r.sendShared(fanAddrs, &wire.Multicast{
			TargetZone: m.TargetZone,
			Hops:       m.Hops + 1,
			Deliver:    true,
			TraceID:    m.TraceID,
			Envelope:   m.Envelope,
		})
	}
}

// forwardToRow sends m toward the zone summarized by row, via up to
// RepCount of its representatives.
func (r *Router) forwardToRow(zone string, row astrolabe.Row, m *wire.Multicast, nextTarget string) {
	// A copy: the list is shuffled below, and the row's own is shared with
	// every replica of the row.
	reps, ok := row.Attrs[astrolabe.AttrReps].AsStrings()
	if !ok || len(reps) == 0 {
		if addr, ok := row.Attrs[astrolabe.AttrAddr].AsString(); ok {
			reps = []string{addr}
		} else {
			return
		}
	}
	k := r.cfg.RepCount
	if k > len(reps) {
		k = len(reps)
	}
	// Random subset of size k for load spreading ("a set of local
	// criteria", §5).
	r.cfg.Rand.Shuffle(len(reps), func(i, j int) { reps[i], reps[j] = reps[j], reps[i] })
	chosen := reps[:k]
	for i, addr := range chosen {
		chosen[i] = value.Intern(addr) // kept, as in fanOutLeafZone
	}
	var fanAddrs []string
	for _, addr := range chosen {
		if addr == r.view.Addr() {
			// We happen to be a representative of the child: recurse
			// locally.
			r.route(&wire.Multicast{TargetZone: nextTarget, Hops: m.Hops, TraceID: m.TraceID, Envelope: m.Envelope})
			continue
		}
		if r.frames != nil {
			fanAddrs = append(fanAddrs, addr)
		} else {
			r.sendTracked(zone, row.Name, addr, &wire.Multicast{
				TargetZone: nextTarget,
				Hops:       m.Hops + 1,
				TraceID:    m.TraceID,
				Envelope:   m.Envelope,
			})
		}
	}
	if len(fanAddrs) > 0 {
		r.sendShared(fanAddrs, &wire.Multicast{
			TargetZone: nextTarget,
			Hops:       m.Hops + 1,
			TraceID:    m.TraceID,
			Envelope:   m.Envelope,
		})
	}
	r.logForward(m.Envelope.Key(), nextTarget, chosen)
}

// sendTracked transmits m to addr, registering it for ack tracking and
// retransmission when reliable forwarding is on. zone and rowName record
// where the destination came from, so a retry can re-consult the (possibly
// fresher) table and fail over to an alternate representative.
func (r *Router) sendTracked(zone, rowName, addr string, m *wire.Multicast) {
	if r.rq == nil {
		r.send(addr, m)
		return
	}
	p := &pendingForward{
		addr:    addr,
		zone:    zone,
		rowName: rowName,
		msg:     *m,
		attempt: 1,
	}
	p.tried = append(p.tryBuf[:0], addr)
	seq, ok := r.rq.register(p)
	if !ok {
		// Retransmit table full: degrade to fire-and-forget rather than
		// queueing unboundedly (the end-to-end cache recovery still backs
		// this forward up).
		r.send(addr, m)
		return
	}
	m.AckSeq = seq
	r.send(addr, m)
	r.scheduleDeadline(seq, 1)
}

// scheduleDeadline arms the ack deadline for attempt n of pending forward
// seq: AckTimeout doubled per attempt, spread by ±RetryJitter.
func (r *Router) scheduleDeadline(seq uint64, attempt int) {
	d := r.cfg.AckTimeout << (attempt - 1)
	r.mu.Lock()
	jitter := 1 + r.cfg.RetryJitter*(2*r.cfg.Rand.Float64()-1)
	r.mu.Unlock()
	d = time.Duration(float64(d) * jitter)
	r.cfg.After(d, func() { r.onAckDeadline(seq) })
}

// onAckDeadline fires when a reliable forward's ack deadline passes: if
// the forward is still pending it is retransmitted — to the next-best
// representative the zone table lists when one remains untried, otherwise
// to the same address — until MaxAttempts is exhausted.
func (r *Router) onAckDeadline(seq uint64) {
	p := r.rq.take(seq)
	if p == nil {
		return // acked in time
	}
	if p.attempt >= r.cfg.MaxAttempts {
		r.mu.Lock()
		r.stats.DeliveryFailures++
		r.mu.Unlock()
		if r.cfg.Tracer != nil {
			r.traceSpan(trace.Span{
				Kind: trace.KindDeliveryFail, Key: p.msg.Envelope.Key(),
				TraceID: p.msg.TraceID,
				Zone:    p.msg.TargetZone, To: p.addr, Attempt: p.attempt,
			})
		}
		if r.cfg.OnDeliveryFailure != nil {
			r.cfg.OnDeliveryFailure(p.msg.Envelope.Key(), p.msg.TraceID,
				p.msg.TargetZone, p.addr, p.attempt)
		}
		return
	}
	addr := r.failoverAddr(p)
	p.attempt++
	r.mu.Lock()
	r.stats.RetriesSent++
	if addr != p.addr {
		r.stats.FailoversTotal++
	}
	r.mu.Unlock()
	if r.cfg.Tracer != nil {
		r.traceSpan(trace.Span{
			Kind: trace.KindRetry, Key: p.msg.Envelope.Key(),
			TraceID: p.msg.TraceID,
			Zone:    p.msg.TargetZone, To: addr, Attempt: p.attempt,
		})
		if addr != p.addr {
			r.traceSpan(trace.Span{
				Kind: trace.KindFailover, Key: p.msg.Envelope.Key(),
				TraceID: p.msg.TraceID,
				Zone:    p.msg.TargetZone, To: addr, Attempt: p.attempt,
				Note: "from " + p.addr,
			})
		}
	}
	p.addr = addr
	p.tried = append(p.tried, addr)
	r.rq.reinsert(p)
	m := p.msg // fresh copy per transmission; AckSeq is already seq
	r.send(addr, &m)
	r.logForward(p.msg.Envelope.Key(), p.msg.TargetZone, []string{addr})
	r.scheduleDeadline(seq, p.attempt)
}

// failoverAddr re-consults the zone table the original forward was routed
// from and returns the best representative not yet tried; when the table
// offers nothing new (vanished row, every candidate tried) it falls back
// to the current address.
func (r *Router) failoverAddr(p *pendingForward) string {
	row, ok := r.view.Row(p.zone, p.rowName)
	if !ok {
		return p.addr
	}
	reps, ok := row.Attrs[astrolabe.AttrReps].RawStrings() // read only
	if !ok || len(reps) == 0 {
		if addr, ok := row.Attrs[astrolabe.AttrAddr].AsString(); ok {
			reps = []string{addr}
		} else {
			return p.addr
		}
	}
	// reps is ranked best-first by the REPS election aggregate, so the
	// first untried candidate is the next-best representative.
	for _, cand := range reps {
		if cand == r.view.Addr() || slices.Contains(p.tried, cand) {
			continue
		}
		return value.Intern(cand) // kept, as in fanOutLeafZone
	}
	return p.addr
}

// ScrambleState is the chaos-injection hook for the router's soft state:
// it drops a fraction of the duplicate-suppression log (forwarding and
// delivery dedup) and of the pending reliable forwards, modeling a node
// whose in-memory bookkeeping was damaged or lost. Dropping dedup entries
// is safe-but-wasteful (the end-system cache still dedups deliveries;
// re-forwards burn bytes). Dropping a pending forward silently abandons
// its retransmits — its deadline callback finds nothing to take — which is
// exactly the hole §9 cache recovery exists to fill.
//
// rng must be owned by the caller; entries are visited in their canonical
// insertion/sequence order, so identically seeded runs scramble
// identically. Returns how many dedup entries and pending forwards were
// dropped.
func (r *Router) ScrambleState(rng *rand.Rand, frac float64) (dedupDropped, pendingDropped int) {
	r.mu.Lock()
	keepSeen := r.seenOrder[:0]
	for _, key := range r.seenOrder {
		if rng.Float64() < frac {
			delete(r.seen, key)
			dedupDropped++
			continue
		}
		keepSeen = append(keepSeen, key)
	}
	r.seenOrder = keepSeen
	keepDlv := r.dlvOrder[:0]
	for _, key := range r.dlvOrder {
		if rng.Float64() < frac {
			delete(r.delivered, key)
			dedupDropped++
			continue
		}
		keepDlv = append(keepDlv, key)
	}
	r.dlvOrder = keepDlv
	r.stats.DedupScrambled += int64(dedupDropped)
	r.mu.Unlock()

	if r.rq != nil {
		pendingDropped = r.rq.scramble(rng, frac)
		r.mu.Lock()
		r.stats.PendingScrambled += int64(pendingDropped)
		r.mu.Unlock()
	}
	return dedupDropped, pendingDropped
}

// Reinject re-fans env into this node's own leaf zone, as if a forward for
// it had just arrived. The §9 rejoin path uses it: a node that recovered an
// item from a peer's cache re-offers it to its leaf siblings, which is how
// quiescent (virtual) members behind the rejoiner receive items they missed
// during its downtime. It fans out directly rather than going through
// route(), whose (item, zone) forwarding dedup would silently drop the
// re-offer on any node that already handled the item once; receivers dedup
// final-delivery copies themselves, which keeps repeated re-offers
// idempotent.
func (r *Router) Reinject(env *wire.ItemEnvelope) {
	r.fanOutLeafZone(&wire.Multicast{
		TargetZone: r.view.ZonePath(),
		TraceID:    trace.DeriveTraceID(env.Key()),
		Envelope:   *env,
	})
}

// PendingAcks reports how many reliable forwards await acknowledgment.
func (r *Router) PendingAcks() int {
	if r.rq == nil {
		return 0
	}
	return r.rq.Len()
}

// passesFilter applies the pub/sub filter hook and the publisher's
// dissemination predicate (§8) to a child row.
func (r *Router) passesFilter(zone string, row astrolabe.Row, env *wire.ItemEnvelope) bool {
	if env.Predicate != "" {
		pred, err := r.predicate(env.Predicate)
		if err != nil || !pred.Eval(row.Attrs) {
			return false
		}
	}
	if r.cfg.Filter != nil {
		return r.cfg.Filter(zone, row, env)
	}
	return true
}

func (r *Router) predicate(src string) (*sqlagg.Predicate, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.preds[src]; ok {
		return p, nil
	}
	p, err := sqlagg.ParsePredicate(src)
	if err != nil {
		return nil, err
	}
	// src views a decoded envelope's buffer; a cached copy of it must not
	// keep that item alive.
	r.preds[strings.Clone(src)] = p
	return p, nil
}

// deliverLocal hands env to the application unless it is a duplicate. tid
// is the wire-carried trace ID of the forward that brought the item here
// (equal to DeriveTraceID of the key, but taken from the message so the
// recorded span proves cross-process propagation).
func (r *Router) deliverLocal(tid uint64, env *wire.ItemEnvelope) {
	key := env.Key()
	r.mu.Lock()
	if r.delivered[key] {
		r.stats.Duplicates++
		r.mu.Unlock()
		if r.cfg.Tracer != nil {
			r.traceSpan(trace.Span{
				Kind: trace.KindDedupDrop, Key: key, TraceID: tid,
				Zone: r.view.ZonePath(), Note: "deliver-dup",
			})
		}
		return
	}
	r.delivered[key] = true
	r.dlvOrder = append(r.dlvOrder, key)
	for len(r.dlvOrder) > r.cfg.DedupWindow {
		delete(r.delivered, r.dlvOrder[0])
		r.dlvOrder = r.dlvOrder[1:]
	}
	r.stats.Delivered++
	r.mu.Unlock()
	if r.cfg.Tracer != nil {
		r.traceSpan(trace.Span{
			Kind: trace.KindDeliver, Key: key, TraceID: tid,
			Zone: r.view.ZonePath(),
		})
	}
	r.cfg.Deliver(env)
}

func (r *Router) send(addr string, m *wire.Multicast) {
	r.mu.Lock()
	r.stats.Forwarded++
	r.mu.Unlock()
	if r.cfg.Tracer != nil {
		span := forwardSpan(m)
		span.To = addr
		r.traceSpan(span)
	}
	_ = r.cfg.Transport.Send(addr, &wire.Message{Kind: wire.KindMulticast, Multicast: m})
}

// forwardSpan is the forward span of m less its destination: everything a
// fan-out's recipients share.
func forwardSpan(m *wire.Multicast) trace.Span {
	span := trace.Span{
		Kind: trace.KindForward, Key: m.Envelope.Key(), TraceID: m.TraceID,
		Zone: m.TargetZone, Hop: m.Hops,
	}
	if m.Deliver {
		span.Note = "deliver-copy"
	}
	return span
}

// sendShared transmits one message to every addr via the transport's
// frame path: the message is encoded once and the same immutable bytes
// are enqueued to every peer, instead of re-serializing per recipient.
// Per-destination stats and trace spans match send exactly. Only called
// when r.frames is set (fire-and-forget forwarding on a FrameSender
// transport).
func (r *Router) sendShared(addrs []string, m *wire.Multicast) {
	f, err := r.frames.NewFrame(&wire.Message{Kind: wire.KindMulticast, Multicast: m})
	if err != nil {
		return
	}
	r.mu.Lock()
	r.stats.Forwarded += int64(len(addrs))
	r.mu.Unlock()
	var span trace.Span
	if r.cfg.Tracer != nil {
		span = forwardSpan(m)
	}
	for _, addr := range addrs {
		if r.cfg.Tracer != nil {
			span.To = addr
			r.traceSpan(span)
		}
		_ = r.frames.SendFrame(addr, f)
	}
}

func (r *Router) logForward(key, zone string, dests []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	entry := LogEntry{Key: key, Zone: zone, Dests: dests}
	if len(r.log) < r.cfg.LogSize {
		r.log = append(r.log, entry)
		r.logNext = len(r.log) % r.cfg.LogSize
		return
	}
	r.log[r.logNext] = entry
	r.logNext = (r.logNext + 1) % r.cfg.LogSize
}
