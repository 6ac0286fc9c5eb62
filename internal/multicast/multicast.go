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
// Every forward — a leaf fan-out's deliver-copy, or a child row's routed
// copy — is built once and sent to all of its destinations as the same
// message; on a transport.FrameSender it is framed once, at the first
// destination, as a fresh header in front of the envelope's sealed span.
// An item's envelope is never rebuilt on its way: Publish seals it once,
// a receiver routes and keeps the envelope it decoded, and local routing
// levels pass it along by pointer. With Config.AckTimeout set, forwarding
// is reliable rather than fire-and-forget: the forward carries one AckSeq
// for all of its destinations, each destination's MulticastAck is matched
// by that seq and its sender, unacknowledged destinations are retransmitted
// the same bytes with exponential jittered backoff, and on each retry the
// sender re-consults the aggregated zone table and fails over to the
// next-best representative of the child zone (excluding those already
// tried).
// Retransmits are idempotent — the node's item table (internal/cache)
// absorbs re-sent copies, so reliability never causes duplicate deliveries.
package multicast

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"newswire/internal/astrolabe"
	"newswire/internal/cache"
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
	// Items is the node's item table, where the router marks its dedup
	// decisions. Nil gives the router a private one.
	Items *cache.Cache
	// VerifyEnvelope, when set, authenticates items before forwarding or
	// delivery; failing envelopes are dropped.
	VerifyEnvelope func(env *wire.ItemEnvelope) error

	// AckTimeout, when positive, makes forwarding reliable: every forward
	// carries one AckSeq, shared by all of its destinations, and a
	// destination that does not acknowledge within the deadline is sent
	// the forward again with exponential backoff (doubling per attempt,
	// ±retryJitter, saturating rather than overflowing), failing over to
	// the next-best representative from a fresh read of the zone table.
	// 0 keeps the paper's fire-and-forget forwarding.
	AckTimeout time.Duration
	// After schedules a callback after a delay, driving retransmit
	// deadlines. Simulated deployments wire the event engine (so retries
	// happen in virtual time); live nodes may leave it nil to get
	// time.AfterFunc. Only consulted when AckTimeout > 0.
	After func(d time.Duration, fn func())
	// MaxAttempts caps transmissions per reliable forward, the initial
	// send included. Default 4.
	MaxAttempts int

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

// Router limits.
const (
	// maxHops bounds forwarding depth.
	maxHops = 64
	// retryJitter is the ± fraction of random spread applied to each
	// backoff delay.
	retryJitter = 0.2
	// maxPendingAcks bounds the retransmit table; destinations beyond it
	// degrade to fire-and-forget rather than queueing unboundedly.
	maxPendingAcks = 8192
)

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

	// Chaos-injection counter (ScrambleState).
	PendingScrambled int64 // pending reliable forwards dropped by scrambling
}

// Router implements SendToZone and the forwarding component of a node.
type Router struct {
	cfg  Config
	view View
	// frames, when non-nil, is the transport's encode-once path: one
	// wire.Frame per forward, shared by reference across its recipients
	// and its retries.
	frames transport.FrameSender
	items  *cache.Cache

	mu    sync.Mutex
	stats Stats
	preds map[string]*sqlagg.Predicate

	// The retransmit table (reliable forwarding). pending indexes each
	// unacknowledged destination under every address it has been sent
	// to. An ack answers the latest copy sent to its sender, so when two
	// entries of one forward were sent to the same address the latest
	// sender holds the key, and waiting stacks the earlier holders: the
	// latest one still pending takes the key back when its holder
	// resolves.
	pending    map[ackKey]*pendingForward
	waiting    map[ackKey][]*pendingForward
	numPending int    // entries not yet done, bounded by maxPendingAcks
	lastSeq    uint64 // the last AckSeq given to a forward
	lastReg    uint64 // the last pendingForward.reg
}

// ackKey is what an ack is matched by: the forward's AckSeq and the
// address of the destination that sends it.
type ackKey struct {
	seq  uint64
	addr string
}

// forward is one forwarding decision's message, built once and sent to
// every destination as the same bytes. Its pending entries keep it until
// they resolve, so a retry resends what the first transmission sent.
type forward struct {
	msg   wire.Message
	mc    wire.Multicast
	frame wire.Frame // the encoding, when the transport is a FrameSender
}

// pendingForward is one destination of a reliable forward awaiting its
// ack: the routing context (the parent table zone and child row name)
// needed to fail over to an alternate representative when the current
// destination stays silent, and the addresses tried so far.
type pendingForward struct {
	fwd     *forward
	reg     uint64 // registration order, for ScrambleState
	addr    string // current destination
	zone    string // table consulted for the forward (failover re-reads it)
	rowName string // row within zone the destination came from
	attempt int    // transmissions so far (1 = the initial send)
	done    bool   // acked, abandoned or scrambled
	tried   []string
	tryBuf  [4]string // tried's first array: MaxAttempts defaults to 4
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
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.AckTimeout > 0 && cfg.After == nil {
		cfg.After = func(d time.Duration, fn func()) { time.AfterFunc(d, fn) }
	}
	if cfg.Clock == nil {
		cfg.Clock = vtime.Real{}
	}
	if cfg.Items == nil {
		cfg.Items, _ = cache.New(cache.Config{Clock: cfg.Clock}) // fails only without a clock
	}
	r := &Router{
		cfg:     cfg,
		view:    cfg.View,
		items:   cfg.Items,
		preds:   make(map[string]*sqlagg.Predicate),
		pending: make(map[ackKey]*pendingForward),
		waiting: make(map[ackKey][]*pendingForward),
	}
	// The simulated transport passes messages by reference and does not
	// implement FrameSender, so this stays nil there and the deterministic
	// scheduler sees one Send per destination.
	r.frames, _ = cfg.Transport.(transport.FrameSender)
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
	// env is the item's one copy from here on: the item table keeps it and
	// every forward relays its span, so it is sealed after its last write.
	env.ScopeZone = scope
	env.Seal()
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
	r.route(hop{target: scope, tid: tid, env: &env})
	return nil
}

// hop is one routing step: the subtree an item is routed for at this node,
// the forwarding hops it took to get here, its trace ID and its envelope,
// shared read-only (the received one, or the one Publish sealed). Local
// recursion passes it by value, so no level builds a message.
type hop struct {
	target string
	hops   int
	tid    uint64
	env    *wire.ItemEnvelope
}

// HandleMessage processes an inbound multicast forward or ack. Other
// message kinds are ignored.
func (r *Router) HandleMessage(msg *wire.Message) {
	if msg.Kind == wire.KindMulticastAck && msg.MulticastAck != nil {
		r.handleAck(msg.From, msg.MulticastAck)
		return
	}
	if msg.Kind != wire.KindMulticast || msg.Multicast == nil {
		return
	}
	m := msg.Multicast
	if m.Hops > maxHops {
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
	// been lost), and the item table's dedup marks keep the retransmit
	// idempotent.
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
	r.route(hop{target: m.TargetZone, hops: m.Hops, tid: m.TraceID, env: &m.Envelope})
}

// ackMessage is an ack's one allocation: the message and its payload.
type ackMessage struct {
	msg wire.Message
	ack wire.MulticastAck
}

// handleAck resolves the pending destination the ack confirms, matched by
// the ack's seq and its sender; late, stale or mismatched acks are ignored.
func (r *Router) handleAck(from string, a *wire.MulticastAck) {
	r.mu.Lock()
	p := r.pending[ackKey{a.Seq, from}]
	if p == nil || p.fwd.mc.Envelope.Key() != a.Key {
		r.mu.Unlock()
		return
	}
	r.dropLocked(p)
	r.stats.AcksReceived++
	to, attempt := p.addr, p.attempt
	r.mu.Unlock()
	if r.cfg.Tracer != nil {
		r.traceSpan(trace.Span{
			Kind: trace.KindAck, Key: a.Key, TraceID: p.fwd.mc.TraceID,
			Zone: a.TargetZone, To: to, Attempt: attempt,
		})
	}
}

// route fans the item out for the subtree rooted at h.target.
func (r *Router) route(h hop) {
	key := h.env.Key()
	target := h.target

	// Forwarding dedup: handle each (item, zone) pair once per node, so
	// k-redundant parents don't multiply traffic exponentially.
	if !r.items.MarkRouted(key, target) {
		r.mu.Lock()
		r.stats.Duplicates++
		r.mu.Unlock()
		if r.cfg.Tracer != nil {
			r.traceSpan(trace.Span{
				Kind: trace.KindDedupDrop, Key: key, TraceID: h.tid,
				Zone: target, Hop: h.hops, Note: "forward-dup",
			})
		}
		return
	}

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
		r.routeToward(h)
		return
	}

	if target == r.view.ZonePath() {
		r.fanOutLeafZone(h)
		return
	}
	r.fanOutChildZones(h)
}

// routeToward sends h's item to representatives of the remote subtree
// containing its target.
func (r *Router) routeToward(h hop) {
	chain := r.view.Chain()
	// Deepest chain zone that contains the target.
	var anchor string
	for _, z := range chain {
		if astrolabe.ZoneContains(z, h.target) {
			anchor = z
		}
	}
	if anchor == "" {
		return
	}
	child, ok := astrolabe.ChildToward(anchor, h.target)
	if !ok {
		return
	}
	row, ok := r.view.Row(anchor, astrolabe.ZoneName(child))
	if !ok {
		return
	}
	r.forwardToRow(anchor, row, h, h.target)
}

// fanOutChildZones handles a target that is a proper ancestor of this
// node's leaf zone: consult the target's table and forward per child.
func (r *Router) fanOutChildZones(h hop) {
	rows, ok := r.view.Table(h.target)
	if !ok {
		return
	}
	ownChild, _ := astrolabe.ChildToward(h.target, r.view.ZonePath())
	ownName := astrolabe.ZoneName(ownChild)

	for _, row := range rows {
		if !r.passesFilter(h.target, row, h.env) {
			r.mu.Lock()
			r.stats.FilteredOut++
			r.stats.FilteredZone++
			r.mu.Unlock()
			continue
		}
		// The child's path, joined on the stack and interned: zone paths
		// are few, and a forward and its spans keep the path.
		var buf [64]byte
		childZone := value.InternBytes(astrolabe.AppendJoinZone(buf[:0], h.target, row.Name))
		if row.Name == ownName {
			// We are inside this child: recurse locally instead of
			// taking a network hop.
			r.route(hop{target: childZone, hops: h.hops, tid: h.tid, env: h.env})
			continue
		}
		r.forwardToRow(h.target, row, h, childZone)
	}
}

// fanOutLeafZone handles a target equal to this node's leaf zone: deliver
// locally and send final-delivery copies to the other subscribed members.
func (r *Router) fanOutLeafZone(h hop) {
	rows, ok := r.view.Table(h.target)
	if !ok {
		return
	}
	var f *forward // the deliver-copy, built at the first member
	for _, row := range rows {
		if !r.passesFilter(h.target, row, h.env) {
			r.mu.Lock()
			r.stats.FilteredOut++
			r.stats.FilteredLeaf++
			r.mu.Unlock()
			continue
		}
		if row.Name == r.view.Name() {
			r.deliverLocal(h.tid, h.env)
			continue
		}
		addr, ok := row.Attrs[astrolabe.AttrAddr].AsString()
		if !ok {
			continue
		}
		// Interned: trace spans and pending forwards outlive the row, and
		// must not keep a gossiped row's buffer (DESIGN.md §8, "Row
		// ownership").
		addr = value.Intern(addr)
		if f == nil {
			f = r.newForward(h, h.target, true)
		}
		r.forwardTo(f, h.target, row.Name, addr)
	}
}

// forwardToRow sends h's item toward the zone summarized by row, via up to
// RepCount of its representatives.
func (r *Router) forwardToRow(zone string, row astrolabe.Row, h hop, nextTarget string) {
	// A copy on the stack: the list is shuffled below, and the row's own is
	// shared with every replica of the row.
	var scratch [8]string
	reps := scratch[:0]
	if list, ok := row.Attrs[astrolabe.AttrReps].RawStrings(); ok && len(list) > 0 {
		reps = append(reps, list...)
	} else if addr, ok := row.Attrs[astrolabe.AttrAddr].AsString(); ok {
		reps = append(reps, addr)
	} else {
		return
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
	var f *forward // built at the first remote representative
	for _, addr := range chosen {
		if addr == r.view.Addr() {
			// We happen to be a representative of the child: recurse
			// locally.
			r.route(hop{target: nextTarget, hops: h.hops, tid: h.tid, env: h.env})
			continue
		}
		if f == nil {
			f = r.newForward(h, nextTarget, false)
		}
		r.forwardTo(f, zone, row.Name, addr)
	}
}

// newForward builds the forward every destination of one fan-out
// receives, one hop further than h: with reliable forwarding on it takes
// the forward's AckSeq, and on a FrameSender it frames the message, once —
// a fresh header in front of the envelope's sealed span.
func (r *Router) newForward(h hop, target string, deliver bool) *forward {
	f := &forward{mc: wire.Multicast{
		TargetZone: target,
		Hops:       h.hops + 1,
		Deliver:    deliver,
		TraceID:    h.tid,
		Envelope:   *h.env,
	}}
	f.msg = wire.Message{Kind: wire.KindMulticast, Multicast: &f.mc}
	if r.cfg.AckTimeout > 0 {
		r.mu.Lock()
		r.lastSeq++
		f.mc.AckSeq = r.lastSeq
		r.mu.Unlock()
	}
	if r.frames != nil {
		f.frame, _ = r.frames.NewFrame(&f.msg)
	}
	return f
}

// forwardTo sends f to addr, registering the destination for ack tracking
// and retransmission when reliable forwarding is on. zone and rowName
// record where the destination came from, so a retry can re-consult the
// (possibly fresher) table and fail over to an alternate representative.
// Past maxPendingAcks a destination degrades to fire-and-forget (its ack
// is ignored, and the end-to-end cache recovery still backs it up).
func (r *Router) forwardTo(f *forward, zone, rowName, addr string) {
	var p *pendingForward
	r.mu.Lock()
	r.stats.Forwarded++
	if f.mc.AckSeq != 0 && r.numPending < maxPendingAcks {
		r.lastReg++
		p = &pendingForward{fwd: f, reg: r.lastReg, addr: addr, zone: zone, rowName: rowName, attempt: 1}
		p.tried = append(p.tryBuf[:0], addr)
		r.claimLocked(p, addr)
		r.numPending++
	}
	r.mu.Unlock()
	r.transmit(f, addr)
	if p != nil {
		r.scheduleDeadline(p)
	}
}

// claimLocked makes p, which is about to transmit to addr, the holder of
// its forward's key for addr.
func (r *Router) claimLocked(p *pendingForward, addr string) {
	k := ackKey{p.fwd.mc.AckSeq, addr}
	if q := r.pending[k]; q != nil && q != p {
		r.waiting[k] = append(r.waiting[k], q)
	}
	r.pending[k] = p
}

// dropLocked removes p from the table, handing each key it holds back to
// the latest earlier holder still pending.
func (r *Router) dropLocked(p *pendingForward) {
	p.done = true
	r.numPending--
	for _, addr := range p.tried {
		k := ackKey{p.fwd.mc.AckSeq, addr}
		if r.pending[k] != p {
			continue
		}
		q := r.waiting[k]
		for len(q) > 0 && q[len(q)-1].done {
			q = q[:len(q)-1]
		}
		if len(q) == 0 {
			delete(r.pending, k)
			delete(r.waiting, k)
			continue
		}
		r.pending[k], r.waiting[k] = q[len(q)-1], q[:len(q)-1]
	}
}

// transmit sends f to addr: every forward's first transmission to each
// destination, and every retry. Callers count it in stats.Forwarded.
func (r *Router) transmit(f *forward, addr string) {
	if r.cfg.Tracer != nil {
		span := trace.Span{
			Kind: trace.KindForward, Key: f.mc.Envelope.Key(), TraceID: f.mc.TraceID,
			Zone: f.mc.TargetZone, Hop: f.mc.Hops, To: addr,
		}
		if f.mc.Deliver {
			span.Note = "deliver-copy"
		}
		r.traceSpan(span)
	}
	if r.frames == nil {
		_ = r.cfg.Transport.Send(addr, &f.msg)
	} else if !f.frame.IsZero() {
		_ = r.frames.SendFrame(addr, f.frame)
	}
}

// scheduleDeadline arms the ack deadline for p's current attempt:
// AckTimeout doubled per attempt after the first, spread by ±retryJitter,
// and saturating at the largest Duration rather than wrapping, as nothing
// bounds MaxAttempts.
func (r *Router) scheduleDeadline(p *pendingForward) {
	r.mu.Lock()
	jitter := 1 + retryJitter*(2*r.cfg.Rand.Float64()-1)
	r.mu.Unlock()
	// Scaling by 2^(attempt-1) is exact in float64, so below the cap this
	// is time.Duration(float64(AckTimeout<<(attempt-1)) * jitter).
	d := time.Duration(math.MaxInt64)
	if f := math.Ldexp(float64(r.cfg.AckTimeout)*jitter, p.attempt-1); f < math.MaxInt64 {
		d = time.Duration(f)
	}
	r.cfg.After(d, func() { r.onAckDeadline(p) })
}

// onAckDeadline fires when p's ack deadline passes: if p is still pending
// the forward is retransmitted — to the next-best representative the zone
// table lists when one remains untried, otherwise to the same address —
// until MaxAttempts is exhausted.
func (r *Router) onAckDeadline(p *pendingForward) {
	r.mu.Lock()
	if p.done {
		r.mu.Unlock()
		return // acked in time
	}
	if p.attempt >= r.cfg.MaxAttempts {
		r.dropLocked(p)
		r.stats.DeliveryFailures++
		r.mu.Unlock()
		m := &p.fwd.mc
		if r.cfg.Tracer != nil {
			r.traceSpan(trace.Span{
				Kind: trace.KindDeliveryFail, Key: m.Envelope.Key(), TraceID: m.TraceID,
				Zone: m.TargetZone, To: p.addr, Attempt: p.attempt,
			})
		}
		if r.cfg.OnDeliveryFailure != nil {
			r.cfg.OnDeliveryFailure(m.Envelope.Key(), m.TraceID, m.TargetZone, p.addr, p.attempt)
		}
		return
	}
	r.mu.Unlock()
	addr := r.failoverAddr(p)
	r.mu.Lock()
	if p.done {
		r.mu.Unlock()
		return // acked while the table was re-read
	}
	prev := p.addr
	p.attempt++
	p.addr = addr
	p.tried = append(p.tried, addr)
	r.claimLocked(p, addr)
	r.stats.Forwarded++
	r.stats.RetriesSent++
	if addr != prev {
		r.stats.FailoversTotal++
	}
	r.mu.Unlock()
	m := &p.fwd.mc
	if r.cfg.Tracer != nil {
		r.traceSpan(trace.Span{
			Kind: trace.KindRetry, Key: m.Envelope.Key(), TraceID: m.TraceID,
			Zone: m.TargetZone, To: addr, Attempt: p.attempt,
		})
		if addr != prev {
			r.traceSpan(trace.Span{
				Kind: trace.KindFailover, Key: m.Envelope.Key(), TraceID: m.TraceID,
				Zone: m.TargetZone, To: addr, Attempt: p.attempt, Note: "from " + prev,
			})
		}
	}
	r.transmit(p.fwd, addr)
	r.scheduleDeadline(p)
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

// ScrambleState is the chaos-injection hook for the router's retransmit
// table: it drops a fraction of the pending reliable forwards, modeling a
// node whose in-memory bookkeeping was damaged or lost. Dropping a pending
// forward silently abandons its retransmits — its deadline callback finds
// it done — which is exactly the hole §9 cache recovery exists to fill.
// rng must be owned by the caller; entries are visited in registration
// order, so identically seeded runs scramble identically. Returns how many
// pending forwards were dropped.
func (r *Router) ScrambleState(rng *rand.Rand, frac float64) (pendingDropped int) {
	r.mu.Lock()
	var entries []*pendingForward
	for _, p := range r.pending {
		entries = append(entries, p)
	}
	for _, q := range r.waiting {
		entries = append(entries, q...)
	}
	slices.SortFunc(entries, func(a, b *pendingForward) int { return cmp.Compare(a.reg, b.reg) })
	for i, p := range entries {
		if p.done || i > 0 && p == entries[i-1] {
			continue
		}
		if rng.Float64() < frac {
			r.dropLocked(p)
			pendingDropped++
		}
	}
	r.stats.PendingScrambled += int64(pendingDropped)
	r.mu.Unlock()
	return pendingDropped
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
	r.fanOutLeafZone(hop{target: r.view.ZonePath(), tid: trace.DeriveTraceID(env.Key()), env: env})
}

// PendingAcks reports how many destinations of reliable forwards await
// acknowledgment.
func (r *Router) PendingAcks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.numPending
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
	if len(r.preds) >= maxCachedPredicates {
		clear(r.preds)
	}
	// src views a decoded envelope's buffer; a cached copy of it must not
	// keep that item alive.
	r.preds[strings.Clone(src)] = p
	return p, nil
}

// maxCachedPredicates caps the router's parsed-predicate cache. Predicate
// strings arrive off the wire, so a full cache is emptied rather than let
// grow with every distinct string peers send.
const maxCachedPredicates = 1024

// deliverLocal hands env to the application unless it is a duplicate. tid
// is the wire-carried trace ID of the forward that brought the item here
// (equal to DeriveTraceID of the key, but taken from the message so the
// recorded span proves cross-process propagation).
func (r *Router) deliverLocal(tid uint64, env *wire.ItemEnvelope) {
	key := env.Key()
	fresh := r.items.MarkHanded(key)
	r.mu.Lock()
	if !fresh {
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
