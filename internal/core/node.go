// Package core composes the NewsWire node the paper describes (§8): "a
// single application that people can download and use to insert
// themselves into the Collaborative Content Delivery Network". A Node is
// an Astrolabe leaf agent, a multicast forwarding component, a pub/sub
// subscriber, an end-system message cache, and (optionally) an
// authenticated publisher — all behind one API. "Under the covers of the
// publisher is an application identical to the subscriber application
// core."
package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"newswire/internal/astrolabe"
	"newswire/internal/bloom"
	"newswire/internal/cache"
	"newswire/internal/flow"
	"newswire/internal/metrics"
	"newswire/internal/multicast"
	"newswire/internal/news"
	"newswire/internal/pubsub"
	"newswire/internal/sqlagg"
	"newswire/internal/trace"
	"newswire/internal/transport"
	"newswire/internal/value"
	"newswire/internal/vtime"
	"newswire/internal/wire"
)

// ItemHandler receives items delivered to the local application, after
// dedup and the leaf's exact-match test.
type ItemHandler func(it *news.Item, env *wire.ItemEnvelope)

// Config configures a Node.
type Config struct {
	// Name is the node's row name, unique within its leaf zone.
	Name string
	// ZonePath is the node's leaf zone.
	ZonePath string
	// Transport carries all the node's traffic.
	Transport transport.Transport
	// Clock supplies time (vtime.Real{} live, virtual in simulation).
	Clock vtime.Clock
	// Rand drives gossip partner and representative choice. Required.
	Rand *rand.Rand

	// GossipInterval is the expected Tick cadence. Default 2s.
	GossipInterval time.Duration

	// Mode is the subscription-summary representation. Default ModeBloom.
	Mode pubsub.Mode
	// Geometry is the Bloom geometry. Default pubsub.DefaultGeometry.
	Geometry pubsub.Geometry

	// RepCount is the forwarding redundancy k. Default 1.
	RepCount int
	// Aggregation overrides the zone aggregation program.
	Aggregation *sqlagg.Program

	// AckTimeout, when positive, makes multicast forwarding reliable:
	// every forward requests an ack — one sequence number per forward,
	// shared by all of its destinations, so the forward is still encoded
	// once — and unacknowledged destinations are sent it again with
	// exponential backoff, failing over to the next-best representative
	// from the aggregated zone table. 0 (the default) keeps
	// fire-and-forget forwarding.
	AckTimeout time.Duration
	// MaxForwardAttempts caps transmissions per reliable forward
	// (initial send included). Default 4.
	MaxForwardAttempts int
	// After schedules delayed callbacks for the retransmit machinery.
	// NewCluster wires the simulation engine so retries run in virtual
	// time; live nodes may leave it nil to get time.AfterFunc.
	After func(d time.Duration, fn func())

	// FuseRevisions keeps only the newest revision per item series.
	FuseRevisions bool

	// PublishRate and PublishBurst flow-control inbound publications per
	// publisher at this forwarder (0 disables admission control).
	PublishRate  float64
	PublishBurst float64

	// AntiEntropyEvery, when positive, makes the node compare recent cache
	// contents with one random zone peer every that-many Ticks — the
	// background repair phase that gives the dissemination protocol "many
	// of the properties of Bimodal Multicast" (§5). The node sends a
	// summary of what it holds inside the window (8 bytes an item) and the
	// peer returns only the envelopes missing from it, so items missed by
	// the best-effort multicast are recovered automatically, without an
	// explicit RecoverFromZonePeer call, and a caught-up node pays for the
	// summary and an empty reply. 0 disables it.
	AntiEntropyEvery int
	// AntiEntropyWindow bounds how far back each exchange looks.
	// Default 10×GossipInterval.
	AntiEntropyWindow time.Duration

	// Tracer receives delivery trace spans from the node's multicast
	// router, cache and state-transfer paths. Nil disables tracing; the
	// disabled path costs one pointer comparison per would-be span.
	Tracer trace.Recorder

	// ReshareRecovered makes the node re-offer every item it recovers via
	// state transfer to its own leaf zone (Router.Reinject). A rejoining
	// node is often the only real agent in front of quiescent (virtual)
	// members; without resharing, items it recovers for itself would never
	// reach them. Idempotent — item tables absorb re-offers of items the
	// zone already handled.
	ReshareRecovered bool

	// Security enables certificates: signed rows, signed items, and
	// verification of both. Nil runs open (trusted network / simulation).
	Security *Security

	// HealthEvery, when positive, folds a digest of this node's own
	// telemetry — delivery-latency sketch, multicast retries and
	// failures, transport queue high-water and drops, cache hit counters,
	// optionally heap-in-use — into its astrolabe row every that-many
	// Ticks, under the reserved sys$health$ namespace. HealthRules then
	// aggregate the digests up the zone hierarchy, so any node can answer
	// cluster-wide health queries from its local table. 0 (the default)
	// disables health publication and installs no health aggregation
	// rules, keeping disabled-mode overhead at zero.
	HealthEvery int
	// HealthHeapBytes, when set alongside HealthEvery, samples the
	// process's heap-in-use for the sys$health$x$heap attribute. Live
	// nodes wire runtime.ReadMemStats here; simulations leave it nil —
	// real heap readings depend on the host scheduler and would make
	// otherwise-identical runs publish different bytes.
	HealthHeapBytes func() uint64

	// OnItem receives delivered items. Optional. env is the envelope the
	// node's item table keeps — for a received item, the one the decoder
	// built — and is shared read-only as a whole: the table, the forwards
	// relaying its encoded span and other readers hold it at once, so no
	// field of it is written (wire.ItemEnvelope). It may be kept; it costs
	// nothing more than the table already holds. An Item's strings share
	// the envelope's payload: keeping any one of them keeps the whole
	// article, so use strings.Clone to keep a field without it.
	OnItem ItemHandler
	// OnDeliveryFailure is called when a reliable forward is abandoned
	// after MaxForwardAttempts: the item's envelope key and trace ID, the
	// target zone, the last address tried, and the attempt count. Live
	// nodes hang structured logging here so operators can grep the trace
	// ID straight from the failure log into /trace.json. Optional.
	OnDeliveryFailure func(key string, traceID uint64, zone, to string, attempts int)
}

// latencySamples caps the delivery-latency histogram's retained sample
// buffer (metrics.Histogram.SetReservoir), so a node that runs for months
// holds constant memory however many items it delivers.
const latencySamples = 8192

// Node is one NewsWire participant. It is safe for concurrent use: the
// live runtime calls HandleMessage from transport goroutines while a
// ticker drives Tick.
type Node struct {
	cfg     Config
	agent   *astrolabe.Agent
	router  *multicast.Router
	sub     *pubsub.Subscriber
	cache   *cache.Cache
	limit   *flow.Limiter
	latency *metrics.Histogram // publish-to-ingest delivery latency, seconds
	// hsketch mirrors latency into a mergeable quantile sketch when
	// HealthEvery is on; its encoding rides the sys$health$q$dlvlat
	// attribute so per-node latency distributions aggregate up the tree.
	hsketch metrics.Sketch
	// lastHealth is the previously published health digest (refresh
	// timestamp excluded): publishHealth re-issues the row only when the
	// digest changed, so an idle node's health attributes go quiet
	// instead of re-dirtying its zone every interval.
	lastHealth value.Map
	// routing collects routing-precision telemetry: positive forwarding
	// decisions, leaf exact matches vs false-positive drops, subgroup
	// filters consulted.
	routing pubsub.Counters

	mu         sync.Mutex
	delivered  int64
	recovered  int64           // items obtained via state transfer, not multicast
	lastSeen   time.Time       // newest Published among delivered items
	ticks      int             // Ticks run; anti-entropy and health run on multiples of it
	exchanges  uint64          // state-transfer exchanges begun (stateRequest's salt)
	publishers map[string]bool // publishers this node announced
}

// NewNode validates cfg and assembles a node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("core: clock required")
	}
	if cfg.Rand == nil {
		return nil, fmt.Errorf("core: rand required")
	}
	if cfg.Mode == 0 {
		cfg.Mode = pubsub.ModeBloom
	}
	if cfg.Geometry.Bits == 0 {
		cfg.Geometry = pubsub.DefaultGeometry
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = astrolabe.DefaultGossipInterval
	}
	if cfg.AntiEntropyWindow <= 0 {
		cfg.AntiEntropyWindow = 10 * cfg.GossipInterval
	}

	n := &Node{cfg: cfg, publishers: make(map[string]bool), latency: &metrics.Histogram{}}
	n.latency.SetReservoir(latencySamples)

	// ModeBloom's summary aggregates in the SQL program; ModePredicate's
	// signature set needs the subgroup-merge prefix rule.
	var prefixRules []astrolabe.PrefixRule
	if cfg.Mode == pubsub.ModePredicate {
		prefixRules = append(prefixRules,
			astrolabe.PrefixRule{Prefix: pubsub.AttrSubGroups, Op: astrolabe.PrefixSubgroup})
	}
	if cfg.HealthEvery > 0 {
		prefixRules = append(prefixRules, astrolabe.HealthRules()...)
	}

	agentCfg := astrolabe.Config{
		Name:           cfg.Name,
		ZonePath:       cfg.ZonePath,
		Transport:      cfg.Transport,
		Clock:          cfg.Clock,
		Rand:           cfg.Rand,
		GossipInterval: cfg.GossipInterval,
		Aggregation:    cfg.Aggregation,
		PrefixRules:    prefixRules,
	}
	if cfg.Security != nil {
		agentCfg.SignRow = cfg.Security.signRow
		agentCfg.VerifyRow = cfg.Security.verifyRow
	}
	agent, err := astrolabe.NewAgent(agentCfg)
	if err != nil {
		return nil, err
	}
	n.agent = agent

	sub, err := pubsub.NewSubscriber(pubsub.Config{
		Agent:    agent,
		Mode:     cfg.Mode,
		Geometry: cfg.Geometry,
		Counters: &n.routing,
	})
	if err != nil {
		return nil, err
	}
	n.sub = sub

	store, err := cache.New(cache.Config{
		Clock:         cfg.Clock,
		FuseRevisions: cfg.FuseRevisions,
		Tracer:        cfg.Tracer,
		TraceNode:     agent.Addr(),
	})
	if err != nil {
		return nil, err
	}
	n.cache = store

	routerCfg := multicast.Config{
		View:        agent,
		Transport:   cfg.Transport,
		RepCount:    cfg.RepCount,
		Rand:        cfg.Rand,
		Filter:      pubsub.ForwardFilter(cfg.Mode, cfg.Geometry, &n.routing),
		Deliver:     n.deliver,
		Items:       store,
		AckTimeout:  cfg.AckTimeout,
		After:       cfg.After,
		MaxAttempts: cfg.MaxForwardAttempts,
		Tracer:      cfg.Tracer,
		Clock:       cfg.Clock,

		OnDeliveryFailure: cfg.OnDeliveryFailure,
	}
	if cfg.Security != nil {
		routerCfg.VerifyEnvelope = cfg.Security.verifyEnvelope
	}
	router, err := multicast.NewRouter(routerCfg)
	if err != nil {
		return nil, err
	}
	n.router = router

	if cfg.PublishRate > 0 {
		burst := cfg.PublishBurst
		if burst <= 0 {
			burst = cfg.PublishRate
		}
		limiter, err := flow.NewLimiter(cfg.Clock, cfg.PublishRate, burst)
		if err != nil {
			return nil, err
		}
		n.limit = limiter
	}
	return n, nil
}

// Agent exposes the Astrolabe agent (experiments read its tables).
func (n *Node) Agent() *astrolabe.Agent { return n.agent }

// FillMetrics mirrors the node's cumulative gossip and forwarding
// counters into reg, under the astrolabe_* and multicast_* names.
// Counters are synced, not added, so calling it repeatedly (e.g. once per
// display refresh) never double counts.
func (n *Node) FillMetrics(reg *metrics.Registry) {
	st := n.agent.Stats()
	reg.Counter("astrolabe_gossips_sent").SyncTo(st.GossipsSent)
	reg.Counter("astrolabe_gossips_received").SyncTo(st.GossipsReceived)
	reg.Counter("astrolabe_gossip_bytes_sent").SyncTo(st.GossipBytesSent)
	reg.Counter("astrolabe_rows_sent").SyncTo(st.RowsSent)
	reg.Counter("astrolabe_digests_sent").SyncTo(st.DigestsSent)
	reg.Counter("astrolabe_rows_merged").SyncTo(st.RowsMerged)
	reg.Counter("astrolabe_agg_evals").SyncTo(st.AggEvals)
	rst := n.router.Stats()
	reg.Counter("multicast_published").SyncTo(rst.Published)
	reg.Counter("multicast_forwarded").SyncTo(rst.Forwarded)
	reg.Counter("multicast_delivered").SyncTo(rst.Delivered)
	reg.Counter("multicast_duplicates").SyncTo(rst.Duplicates)
	reg.Counter("multicast_acks_sent").SyncTo(rst.AcksSent)
	reg.Counter("multicast_acks_received").SyncTo(rst.AcksReceived)
	reg.Counter("multicast_retries_sent").SyncTo(rst.RetriesSent)
	reg.Counter("multicast_failovers_total").SyncTo(rst.FailoversTotal)
	reg.Counter("multicast_delivery_failures").SyncTo(rst.DeliveryFailures)
	pst := n.routing.Snapshot()
	reg.Counter("pubsub_forwards").SyncTo(pst.Forwards)
	reg.Counter("pubsub_false_positive_drops").SyncTo(pst.FalsePositiveDrops)
	reg.Counter("pubsub_exact_matches").SyncTo(pst.ExactMatches)
	reg.Counter("pubsub_subgroup_tests").SyncTo(pst.SubgroupTests)
	reg.Gauge("pubsub_subgroup_filters").Set(float64(n.SubgroupFilters()))
	cst := n.cache.Stats()
	reg.Counter("cache_puts").SyncTo(cst.Puts)
	reg.Counter("cache_duplicates").SyncTo(cst.Duplicates)
	reg.Counter("cache_fused").SyncTo(cst.Fused)
	reg.Counter("cache_evicted").SyncTo(cst.Evicted)
	reg.Gauge("cache_items").Set(float64(n.cache.Len()))
	reg.Gauge("cache_keys").Set(float64(n.cache.Keys()))
	reg.Gauge("newswire_delivered_items").Set(float64(n.Delivered()))
	reg.RegisterHistogram("newswire_delivery_latency_seconds", n.latency)
	if mf, ok := n.cfg.Transport.(transport.MetricsFiller); ok {
		mf.FillMetrics(reg)
	}
	metrics.CollectRuntime(reg)
}

// TransportStats returns the transport's data-path counters when the
// node runs on a transport that keeps them (the TCP transport does; the
// simulated transport does not).
func (n *Node) TransportStats() (transport.Stats, bool) {
	if src, ok := n.cfg.Transport.(transport.StatsSource); ok {
		return src.TransportStats(), true
	}
	return transport.Stats{}, false
}

// GossipInterval returns the node's Tick cadence, its default applied.
func (n *Node) GossipInterval() time.Duration { return n.cfg.GossipInterval }

// Router exposes the multicast router (experiments read its stats).
func (n *Node) Router() *multicast.Router { return n.router }

// Cache exposes the node's item table, the message cache.
func (n *Node) Cache() *cache.Cache { return n.cache }

// Addr returns the node's transport address.
func (n *Node) Addr() string { return n.agent.Addr() }

// Name returns the node's row name.
func (n *Node) Name() string { return n.agent.Name() }

// ZonePath returns the node's leaf zone.
func (n *Node) ZonePath() string { return n.agent.ZonePath() }

// Delivered returns how many distinct items reached the application.
func (n *Node) Delivered() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.delivered
}

// Recovered returns how many items this node obtained through §9 state
// transfer (rejoin/anti-entropy) rather than the multicast tree.
func (n *Node) Recovered() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.recovered
}

// SeedDeliveredKeys records item keys that were already delivered to this
// member before it had a running agent (its virtual-leaf phase). The
// cluster calls it at materialization so a later re-ingest of the same
// item — a recovery pass after a crash, say — does not double-count in
// delivery accounting.
func (n *Node) SeedDeliveredKeys(keys []string) {
	for _, key := range keys {
		n.cache.Count(key)
	}
}

// Subscribe adds subjects to the node's subscription set.
func (n *Node) Subscribe(subjects ...string) error {
	return n.sub.Subscribe(subjects...)
}

// Unsubscribe removes subjects.
func (n *Node) Unsubscribe(subjects ...string) {
	n.sub.Unsubscribe(subjects...)
}

// SetPredicate installs the subscriber's SQL selection query (§8).
func (n *Node) SetPredicate(expr string) error {
	return n.sub.SetPredicate(expr)
}

// SubscribeQuery registers a typed predicate subscription (ModePredicate)
// and returns its canonical form.
func (n *Node) SubscribeQuery(src string) (string, error) {
	return n.sub.SubscribeQuery(src)
}

// Queries returns the node's predicate subscriptions in canonical form.
func (n *Node) Queries() []string { return n.sub.Queries() }

// Subjects returns a copy of the node's sorted subscriptions.
func (n *Node) Subjects() []string { return append([]string{}, n.sub.Subjects()...) }

// RoutingStats snapshots the node's routing-precision counters.
func (n *Node) RoutingStats() pubsub.CounterSnapshot { return n.routing.Snapshot() }

// SubgroupFilters counts the subgroup signature filters advertised by the
// sibling rows of this node's zone chain — the rows its own forwarding
// decisions test. A low count with high precision means clustering is
// doing its job.
func (n *Node) SubgroupFilters() int {
	total := 0
	for _, zone := range n.agent.Chain() {
		rows, ok := n.agent.Table(zone)
		if !ok {
			continue
		}
		for _, r := range rows {
			if enc, ok := r.Attrs[pubsub.AttrSubGroups].RawBytes(); ok {
				total += bloom.SignatureSetLen(enc)
			}
		}
	}
	return total
}

// SetLoad advertises the node's load for representative election.
func (n *Node) SetLoad(load float64) {
	n.agent.SetAttr(astrolabe.AttrLoad, value.Float(load))
}

// Tick advances the node one gossip round and — when configured — runs
// one step of item anti-entropy and publishes health.
func (n *Node) Tick() {
	n.agent.Tick()
	n.mu.Lock()
	n.ticks++
	runAE := n.cfg.AntiEntropyEvery > 0 && n.ticks%n.cfg.AntiEntropyEvery == 0
	runHealth := n.cfg.HealthEvery > 0 && n.ticks%n.cfg.HealthEvery == 0
	n.mu.Unlock()
	if runAE {
		n.antiEntropyStep()
	}
	if runHealth {
		n.publishHealth()
	}
}

// publishHealth folds the node's current telemetry into its astrolabe row
// under the sys$health$ namespace. The digest is compared (refresh stamp
// excluded) against the last published one and the row is only re-issued
// on change, so quiescent nodes stop paying gossip bytes for health.
func (n *Node) publishHealth() {
	rst := n.router.Stats()
	cst := n.cache.Stats()
	attrs := value.Map{
		astrolabe.HealthSumPrefix + "nodes":    value.Int(1),
		astrolabe.HealthSumPrefix + "retries":  value.Int(rst.RetriesSent),
		astrolabe.HealthSumPrefix + "dlvfail":  value.Int(rst.DeliveryFailures),
		astrolabe.HealthSumPrefix + "cacheput": value.Int(cst.Puts),
		astrolabe.HealthSumPrefix + "cachedup": value.Int(cst.Duplicates),
	}
	var drops int64
	if ts, ok := n.TransportStats(); ok {
		drops = ts.QueueFullDrops + ts.ConnDrops
		attrs[astrolabe.HealthSumPrefix+"qdrops"] = value.Int(drops)
		attrs[astrolabe.HealthMaxPrefix+"qhiwat"] = value.Int(ts.QueueHighWater)
	}
	if n.cfg.HealthHeapBytes != nil {
		attrs[astrolabe.HealthMaxPrefix+"heap"] = value.Int(int64(n.cfg.HealthHeapBytes()))
	}
	// Worst-node election by lexical MAX: zero-padded badness score, then
	// the node's leaf zone and name, so the aggregated root value names
	// the most troubled node and where it sits in the hierarchy.
	attrs[astrolabe.HealthMaxPrefix+"worst"] = value.String(fmt.Sprintf(
		"%012d|%s/%s", drops+rst.DeliveryFailures+rst.RetriesSent,
		n.agent.ZonePath(), n.agent.Name()))
	if n.hsketch.Count() > 0 {
		attrs[astrolabe.HealthSketchPrefix+"dlvlat"] = value.Bytes(n.hsketch.Encode())
	}
	n.mu.Lock()
	unchanged := n.lastHealth != nil && n.lastHealth.Equal(attrs)
	if !unchanged {
		n.lastHealth = attrs.Clone()
	}
	n.mu.Unlock()
	if unchanged {
		return
	}
	published := attrs.Clone()
	published[astrolabe.HealthMinPrefix+"refresh"] = value.Time(n.cfg.Clock.Now())
	n.agent.SetAttrs(published)
}

// antiEntropyStep asks one random zone peer for the items published inside
// the anti-entropy window that match this node's subscriptions and that it
// does not hold: the request lists what the node has (stateRequest), the
// reply carries the rest. A fully caught-up node pays 8 bytes per windowed
// item out and an empty reply back.
func (n *Node) antiEntropyStep() {
	sc := candidatePool.Get().(*candidateScratch)
	defer sc.release()
	peers := n.recoveryCandidates(sc)
	if len(peers) == 0 {
		return
	}
	peer := peers[n.cfg.Rand.Intn(len(peers))]
	since := n.cfg.Clock.Now().Add(-n.cfg.AntiEntropyWindow)
	_ = n.RequestStateTransfer(peer, since, 256)
}

// HandleMessage dispatches one inbound message to the right component.
func (n *Node) HandleMessage(msg *wire.Message) {
	switch msg.Kind {
	case wire.KindGossipDigest, wire.KindGossipDelta:
		n.agent.HandleMessage(msg)
	case wire.KindMulticast:
		if n.admit(msg) {
			n.router.HandleMessage(msg)
		}
	case wire.KindMulticastAck:
		n.router.HandleMessage(msg)
	case wire.KindStateRequest:
		n.handleStateRequest(msg)
	case wire.KindStateReply:
		n.handleStateReply(msg)
	}
}

// admit applies per-publisher flow control to forwarded publications,
// before the router's subscription-summary filter sees them (§8:
// forwarders "protect the system from flooding by publishers").
func (n *Node) admit(msg *wire.Message) bool {
	if n.limit == nil || msg.Multicast == nil {
		return true
	}
	return n.limit.Allow(msg.Multicast.Envelope.Publisher, 1)
}

// DeniedPublications reports how many forwards were refused for a
// publisher by this node's admission control.
func (n *Node) DeniedPublications(publisher string) int64 {
	if n.limit == nil {
		return 0
	}
	return n.limit.Denied(publisher)
}

// deliver is the router's local-delivery callback (after the router's
// delivery dedup): exact-match test, then ingest.
func (n *Node) deliver(env *wire.ItemEnvelope) {
	if !n.sub.ShouldDeliver(env) {
		return
	}
	n.ingest(env)
}

// ingest stores and (if new) surfaces one envelope, reporting whether the
// item was new to this node. The item table keeps env itself.
func (n *Node) ingest(env *wire.ItemEnvelope) bool {
	if !n.cache.Keep(env) {
		return false // stored before, or superseded
	}
	counted := n.cache.Count(env.Key())
	n.mu.Lock()
	if counted {
		n.delivered++
	}
	if env.Published.After(n.lastSeen) {
		n.lastSeen = env.Published
	}
	n.mu.Unlock()
	if !counted {
		// Counted during this member's virtual-leaf phase: the cached copy
		// can serve recovery, but there is no latency sample or callback.
		return true
	}
	lat := n.cfg.Clock.Now().Sub(env.Published).Seconds()
	n.latency.Observe(lat)
	if n.cfg.HealthEvery > 0 {
		n.hsketch.Observe(lat)
	}
	if n.cfg.OnItem == nil {
		return true
	}
	it, err := pubsub.DecodeItem(env)
	if err != nil {
		return true // malformed payload; cached copy retained for forensics
	}
	n.cfg.OnItem(it, env)
	return true
}

// traceSpan stamps and records one span. Callers nil-check cfg.Tracer
// first, so disabled tracing never reaches this function.
func (n *Node) traceSpan(s trace.Span) {
	s.Node = n.agent.Addr()
	s.At = n.cfg.Clock.Now()
	n.cfg.Tracer.Record(s)
}

// PublishItem injects a news item into the network, disseminating to
// every subscribed leaf under scope ("" = everywhere). predicate
// optionally gates forwarding on zone/member attributes (§8).
func (n *Node) PublishItem(it *news.Item, scope, predicate string) error {
	if err := it.Validate(); err != nil {
		return err
	}
	if predicate != "" {
		if _, err := sqlagg.ParsePredicate(predicate); err != nil {
			return err
		}
	}
	if n.limit != nil && !n.limit.Allow(it.Publisher, 1) {
		return fmt.Errorf("core: publisher %q over admission rate", it.Publisher)
	}
	env, err := pubsub.EncodeItem(it, n.cfg.Mode, n.cfg.Geometry, nil)
	if err != nil {
		return err
	}
	env.Predicate = predicate
	if scope == "" {
		scope = astrolabe.RootZone
	}
	// The scope is covered by the signature, so stamp it before signing
	// (Router.Publish re-stamps the identical value).
	env.ScopeZone = scope
	if n.cfg.Security != nil {
		if err := n.cfg.Security.signEnvelope(&env); err != nil {
			return err
		}
	}
	n.announcePublisher(it.Publisher)
	return n.router.Publish(env, scope)
}

// announcePublisher adds the publisher to this node's roster attribute so
// the UNION aggregation advertises it system-wide.
func (n *Node) announcePublisher(publisher string) {
	n.mu.Lock()
	if n.publishers[publisher] {
		n.mu.Unlock()
		return
	}
	n.publishers[publisher] = true
	names := make([]string, 0, len(n.publishers))
	for p := range n.publishers {
		names = append(names, p)
	}
	n.mu.Unlock()
	sort.Strings(names)
	n.agent.SetAttr(astrolabe.AttrPubs, value.Strings(names))
}

// KnownPublishers returns the system-wide publisher roster visible in the
// node's root table.
func (n *Node) KnownPublishers() []string {
	rows, ok := n.agent.Table(astrolabe.RootZone)
	if !ok {
		return nil
	}
	seen := make(map[string]bool)
	for _, r := range rows {
		if pubs, ok := r.Attrs[astrolabe.AttrPubs].RawStrings(); ok {
			for _, p := range pubs {
				seen[p] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// IntroduceTo opens a delta gossip exchange with each of the given peers
// over this node's whole zone chain (astrolabe.Agent.Introduce): one
// exchange leaves the node and each peer holding the other's rows of the
// tables they share, bootstrapping the joiner's replicas. Joining a zone
// whose members the node does not know yet requires introducing to at
// least one member (or representative) of that zone — gossip with
// siblings alone cannot reveal a foreign zone's leaf table. The zone's
// row in a bootstrap peer's tables lists suitable targets (its reps).
func (n *Node) IntroduceTo(peers ...string) {
	n.agent.Introduce(peers...)
}

// RequestStateTransfer asks a peer's cache for the items published since t
// that match this node's subscriptions and that it does not already hold —
// the joining/recovery path of §9. One round trip: the request carries a
// summary of the node's own cache from t on, the reply only what is
// missing from it, oldest first and at most maxItems.
func (n *Node) RequestStateTransfer(peer string, since time.Time, maxItems int) error {
	return n.sendStateRequest(peer, n.stateRequest(since, maxItems))
}

// stateRequest builds the payload of one state-transfer exchange. It may be
// sent to several peers; it is not written to again.
//
// The summary's salt is the exchange count hashed with the node's address:
// different for every exchange of a node and for the same count on two
// nodes, and drawn without touching cfg.Rand, whose stream decides gossip
// partners and must not depend on how often a node recovers. Should two
// keys collide under a salt — by accident, or because another publisher
// crafted an ID to shadow an item — the peer withholds an item this node
// lacks for that exchange only; the next one hashes under a new salt.
func (n *Node) stateRequest(since time.Time, maxItems int) *wire.StateRequest {
	subjects := n.sub.Subjects()
	if n.cfg.Mode == pubsub.ModePredicate && len(n.sub.Queries()) > 0 {
		// Predicate subscriptions can match items outside the plain
		// subject set; ask for the whole window and let ShouldDeliver
		// filter the reply exactly.
		subjects = nil
	}
	n.mu.Lock()
	n.exchanges++
	salt := wire.ItemHash(n.exchanges, n.agent.Addr())
	n.mu.Unlock()
	return &wire.StateRequest{
		Since:    since,
		MaxItems: maxItems,
		Subjects: subjects,
		Salt:     salt,
		Have:     n.cache.Have(since, salt),
	}
}

func (n *Node) sendStateRequest(peer string, req *wire.StateRequest) error {
	return n.cfg.Transport.Send(peer, &wire.Message{Kind: wire.KindStateRequest, StateRequest: req})
}

// RecoverFromZonePeer requests the items published after the newest item
// this node has seen from up to three peers: same-zone members first,
// then representatives of sibling zones up the chain (a whole leaf zone
// can miss an item when its only representative died, so intra-zone peers
// are not always enough). This is the end-to-end recovery of §9.
func (n *Node) RecoverFromZonePeer(maxItems int) error {
	n.mu.Lock()
	since := n.lastSeen
	n.mu.Unlock()
	return n.recoverSince(since, maxItems)
}

// Resync is the deep-recovery escalation: request everything, since the
// epoch, from up to three recovery candidates. Incremental recovery keys
// off the lastSeen watermark and therefore cannot fill a hole that is
// older than the newest delivered item — a zone that exhausted its
// retransmit budget on one mid-partition item but kept receiving later
// publications is permanently stuck under RecoverFromZonePeer alone.
//
// A peer holding more than maxItems missing items answers with the oldest
// maxItems. Because each request lists what the node already holds, calling
// Resync again once those arrived fetches the next maxItems, not the same
// ones: ceil(missing/maxItems) calls converge.
func (n *Node) Resync(maxItems int) error {
	return n.recoverSince(time.Time{}, maxItems)
}

func (n *Node) recoverSince(since time.Time, maxItems int) error {
	sc := candidatePool.Get().(*candidateScratch)
	defer sc.release()
	peers := n.recoveryCandidates(sc)
	if len(peers) == 0 {
		return fmt.Errorf("core: no peers to recover from")
	}
	n.cfg.Rand.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	if len(peers) > 3 {
		peers = peers[:3]
	}
	req := n.stateRequest(since, maxItems)
	var firstErr error
	for _, peer := range peers {
		if err := n.sendStateRequest(peer, req); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// candidateScratch is the working memory of one recoveryCandidates call.
// It is pooled, not kept per node: a node draws candidates every few
// ticks, which is often enough that building a ~70-entry set and three
// table snapshots from nothing dominated the control plane's allocations,
// and rarely enough that a thousand nodes each retaining their own would
// only grow the heap. A pool is also safe when a caller's
// RecoverFromZonePeer overlaps the node's own ticker.
type candidateScratch struct {
	seen  map[string]struct{}
	rows  []astrolabe.Row
	peers []string
}

var candidatePool = sync.Pool{
	New: func() any { return &candidateScratch{seen: make(map[string]struct{})} },
}

// release returns sc to the pool, dropping what it references; the peers
// slice recoveryCandidates returned from it is dead after this.
func (sc *candidateScratch) release() {
	clear(sc.seen)
	clear(sc.rows[:cap(sc.rows)])
	clear(sc.peers[:cap(sc.peers)])
	sc.rows, sc.peers = sc.rows[:0], sc.peers[:0]
	candidatePool.Put(sc)
}

// recoveryCandidates lists peer addresses whose caches may hold missed
// items: leaf-zone members, then sibling-zone representatives at every
// level. The list lives in sc.
func (n *Node) recoveryCandidates(sc *candidateScratch) []string {
	sc.seen[n.Addr()] = struct{}{}
	add := func(addr string) {
		if _, dup := sc.seen[addr]; addr != "" && !dup {
			sc.seen[addr] = struct{}{}
			sc.peers = append(sc.peers, addr)
		}
	}
	var ok bool
	if sc.rows, ok = n.agent.AppendTable(sc.rows[:0], n.agent.ZonePath()); ok {
		for _, r := range sc.rows {
			if r.Name == n.agent.Name() {
				continue
			}
			if _, virt := r.Attrs[astrolabe.AttrVirtual]; virt {
				continue // virtual leaves hold no cache to recover from
			}
			if addr, ok := r.Attrs[astrolabe.AttrAddr].AsString(); ok {
				add(addr)
			}
		}
	}
	chain := n.agent.Chain()
	for i := len(chain) - 2; i >= 0; i-- {
		if sc.rows, ok = n.agent.AppendTable(sc.rows[:0], chain[i]); !ok {
			continue
		}
		for _, r := range sc.rows {
			reps, _ := r.Attrs[astrolabe.AttrReps].RawStrings()
			for _, rep := range reps {
				add(rep)
			}
		}
	}
	return sc.peers
}

// handleStateRequest answers with the cached envelopes the request asks for
// minus those its summary lists. The summary is outside input: a list that
// is not ascending is sorted in a copy (the message may be shared), repeats
// are harmless to a binary search, and no list can make the reply larger
// than it would be without one.
func (n *Node) handleStateRequest(msg *wire.Message) {
	req := msg.StateRequest
	maxItems := req.MaxItems
	if maxItems <= 0 || maxItems > 4096 {
		maxItems = 4096
	}
	have := req.Have
	if !slices.IsSorted(have) {
		have = slices.Clone(have)
		slices.Sort(have)
	}
	envs, truncated := n.cache.SinceExcept(req.Since, req.Subjects, req.Salt, have, maxItems)
	if n.cfg.Tracer != nil && len(envs) > 0 {
		n.traceSpan(trace.Span{
			Kind: trace.KindCacheServe, Zone: n.agent.ZonePath(),
			To: msg.From, Note: fmt.Sprintf("%d items", len(envs)),
		})
	}
	reply := &stateReplyMessage{reply: wire.StateReply{Envelopes: envs, Truncated: truncated}}
	reply.msg = wire.Message{Kind: wire.KindStateReply, StateReply: &reply.reply}
	_ = n.cfg.Transport.Send(msg.From, &reply.msg)
}

// stateReplyMessage is a state reply's one allocation: the message and its
// payload.
type stateReplyMessage struct {
	msg   wire.Message
	reply wire.StateReply
}

func (n *Node) handleStateReply(msg *wire.Message) {
	for i := range msg.StateReply.Envelopes {
		env := &msg.StateReply.Envelopes[i]
		if n.cfg.Security != nil {
			if err := n.cfg.Security.verifyEnvelope(env); err != nil {
				continue
			}
		}
		if !n.sub.ShouldDeliver(env) {
			continue
		}
		// The item table keeps what it is given: a copy of its own, so no
		// kept envelope pins the reply's whole array.
		kept := *env
		env = &kept
		if !n.ingest(env) {
			continue
		}
		n.mu.Lock()
		n.recovered++
		n.mu.Unlock()
		if n.cfg.Tracer != nil {
			// Recovered through anti-entropy / state transfer rather than
			// the multicast tree — the "gossip-carry" path of §5/§9.
			n.traceSpan(trace.Span{
				Kind: trace.KindGossipCarry, Key: env.Key(),
				TraceID: trace.DeriveTraceID(env.Key()),
				Zone:    n.agent.ZonePath(), To: msg.From,
			})
		}
		if n.cfg.ReshareRecovered {
			n.router.Reinject(env)
		}
	}
}

// ScrambleReport tallies what one ScrambleState call damaged.
type ScrambleReport struct {
	Rows    int // zone-table rows corrupted/permuted
	Dedup   int // item keys whose routing marks were dropped
	Pending int // pending reliable forwards dropped
}

// ScrambleState is the chaos hook: it damages a fraction frac of this
// node's zone-table rows (astrolabe.Agent.ScrambleRows), of its item
// table's routing marks (cache.Cache.Scramble) and of its pending reliable
// forwards (multicast.Router.ScrambleState). rng must be owned by the
// caller and is drawn in canonical order, keeping identically seeded runs
// bit-identical.
func (n *Node) ScrambleState(rng *rand.Rand, frac float64) ScrambleReport {
	rows := n.agent.ScrambleRows(rng, frac)
	dedup := n.cache.Scramble(rng, frac)
	pending := n.router.ScrambleState(rng, frac)
	return ScrambleReport{Rows: rows, Dedup: dedup, Pending: pending}
}
