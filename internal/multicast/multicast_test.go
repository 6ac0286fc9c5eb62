package multicast

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"newswire/internal/astrolabe"
	"newswire/internal/sim"
	"newswire/internal/trace"
	"newswire/internal/wire"
)

// mcNode couples an astrolabe agent with a multicast router on one
// simulated endpoint.
type mcNode struct {
	agent  *astrolabe.Agent
	router *Router

	mu        sync.Mutex
	delivered []string // envelope keys
}

func (n *mcNode) deliveredKeys() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, len(n.delivered))
	copy(out, n.delivered)
	return out
}

type mcCluster struct {
	t     *testing.T
	eng   *sim.Engine
	net   *sim.Network
	nodes []*mcNode
}

// newMCCluster builds a small simulated cluster. Optional hooks adjust
// each node's router Config before creation (e.g. to turn on reliable
// forwarding).
func newMCCluster(t *testing.T, zones []string, repCount int, filter Filter, hooks ...func(i int, cfg *Config)) *mcCluster {
	t.Helper()
	eng := sim.NewEngine(777)
	net := sim.NewNetwork(eng, sim.LinkModel{
		LatencyMin: 5 * time.Millisecond,
		LatencyMax: 30 * time.Millisecond,
	})
	c := &mcCluster{t: t, eng: eng, net: net}
	for i, zone := range zones {
		addr := fmt.Sprintf("n%d", i)
		node := &mcNode{}
		ep := net.Attach(addr, func(m *wire.Message) {
			switch m.Kind {
			case wire.KindMulticast, wire.KindMulticastAck:
				node.router.HandleMessage(m)
			default:
				node.agent.HandleMessage(m)
			}
		})
		agent, err := astrolabe.NewAgent(astrolabe.Config{
			Name:      fmt.Sprintf("node-%d", i),
			ZonePath:  zone,
			Transport: ep,
			Clock:     eng.Clock(),
			Rand:      rand.New(rand.NewSource(int64(i) + 100)),
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			View:      agent,
			Transport: ep,
			RepCount:  repCount,
			Rand:      rand.New(rand.NewSource(int64(i) + 200)),
			Filter:    filter,
			Deliver: func(env *wire.ItemEnvelope) {
				node.mu.Lock()
				node.delivered = append(node.delivered, env.Key())
				node.mu.Unlock()
			},
		}
		for _, h := range hooks {
			h(i, &cfg)
		}
		if cfg.AckTimeout > 0 && cfg.After == nil {
			cfg.After = eng.After // virtual-time retries
		}
		router, err := NewRouter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		node.agent = agent
		node.router = router
		c.nodes = append(c.nodes, node)
	}
	// Bootstrap membership and run gossip until tables stabilize.
	for _, n := range c.nodes {
		var seeds []wire.RowUpdate
		for _, m := range c.nodes {
			if m != n {
				seeds = append(seeds, m.agent.ChainRowUpdates()...)
			}
		}
		n.agent.MergeRows(seeds)
	}
	c.runRounds(6)
	return c
}

func (c *mcCluster) runRounds(r int) {
	for i := 0; i < r; i++ {
		for _, n := range c.nodes {
			n.agent.Tick()
		}
		c.eng.RunFor(time.Second)
	}
}

func envelope(id string) wire.ItemEnvelope {
	return wire.ItemEnvelope{
		Publisher: "test",
		ItemID:    id,
		Subjects:  []string{"tech/linux"},
		Published: time.Unix(1017619200, 0).UTC(),
		Payload:   []byte("<nitf/>"),
	}
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestMulticastReachesAllNodes(t *testing.T) {
	zones := []string{"/usa/ny", "/usa/ny", "/usa/ca", "/asia/jp", "/asia/jp", "/asia/cn"}
	c := newMCCluster(t, zones, 1, nil)

	if err := c.nodes[0].router.Publish(envelope("story-1"), "/"); err != nil {
		t.Fatal(err)
	}
	c.eng.RunFor(5 * time.Second)

	for i, n := range c.nodes {
		keys := n.deliveredKeys()
		if len(keys) != 1 || keys[0] != "test/story-1#0" {
			t.Errorf("node %d delivered %v, want [test/story-1#0]", i, keys)
		}
	}
}

func TestMulticastNoDuplicateDeliveries(t *testing.T) {
	zones := []string{"/a/x", "/a/x", "/a/y", "/b/z", "/b/z"}
	c := newMCCluster(t, zones, 3, nil) // redundant forwarding

	c.nodes[0].router.Publish(envelope("dup-test"), "/")
	c.eng.RunFor(5 * time.Second)

	for i, n := range c.nodes {
		if keys := n.deliveredKeys(); len(keys) != 1 {
			t.Errorf("node %d delivered %d copies: %v", i, len(keys), keys)
		}
	}
}

func TestMulticastZoneScoped(t *testing.T) {
	zones := []string{"/usa/ny", "/usa/ca", "/asia/jp", "/asia/cn"}
	c := newMCCluster(t, zones, 1, nil)

	// Publish from a /usa node into /asia only (§8's localized news).
	c.nodes[0].router.Publish(envelope("asia-only"), "/asia")
	c.eng.RunFor(5 * time.Second)

	for i, n := range c.nodes {
		keys := n.deliveredKeys()
		inAsia := astrolabe.ZoneContains("/asia", n.agent.ZonePath())
		if inAsia && len(keys) != 1 {
			t.Errorf("asia node %d delivered %v", i, keys)
		}
		if !inAsia && len(keys) != 0 {
			t.Errorf("usa node %d should not receive asia-scoped item: %v", i, keys)
		}
	}
}

func TestMulticastFilterPruning(t *testing.T) {
	zones := []string{"/a/x", "/a/y", "/b/z"}
	// Filter that refuses everything under /b.
	filter := func(zone string, row astrolabe.Row, env *wire.ItemEnvelope) bool {
		child := astrolabe.JoinZone(zone, row.Name)
		return !astrolabe.ZoneContains("/b", child)
	}
	c := newMCCluster(t, zones, 1, filter)

	c.nodes[0].router.Publish(envelope("filtered"), "/")
	c.eng.RunFor(5 * time.Second)

	if keys := c.nodes[2].deliveredKeys(); len(keys) != 0 {
		t.Errorf("/b node received filtered item: %v", keys)
	}
	if keys := c.nodes[1].deliveredKeys(); len(keys) != 1 {
		t.Errorf("/a node missed item: %v", keys)
	}
	st := c.nodes[0].router.Stats()
	if st.FilteredOut == 0 {
		t.Error("filter was never consulted")
	}
}

func TestMulticastPredicateGating(t *testing.T) {
	zones := []string{"/a/x", "/b/y"}
	c := newMCCluster(t, zones, 1, nil)

	// The predicate evaluates against every row on the forwarding path:
	// aggregated zone rows and leaf member rows. "load" exists at both
	// levels (leaf rows carry it; the default program aggregates
	// MIN(load)), so gate on load.
	c.runRounds(4)

	env := envelope("everyone")
	env.Predicate = "load >= 0"
	c.nodes[0].router.Publish(env, "/")
	c.eng.RunFor(5 * time.Second)
	if len(c.nodes[1].deliveredKeys()) != 1 {
		t.Error("satisfied predicate blocked delivery")
	}

	env2 := envelope("impossible")
	env2.Predicate = "load > 1000"
	c.nodes[0].router.Publish(env2, "/")
	c.eng.RunFor(5 * time.Second)
	for i, n := range c.nodes {
		for _, k := range n.deliveredKeys() {
			if k == "test/impossible#0" {
				// Publisher's own leaf-zone fan-out also consults the
				// predicate against leaf rows, which lack nmembers; the
				// item must reach nobody.
				t.Errorf("node %d received item with unsatisfiable predicate", i)
			}
		}
	}
}

func TestMulticastRedundantRepsSurviveFailure(t *testing.T) {
	// Zone /a has 3 members, so with RepCount 3 each parent-level forward
	// goes to up to 3 representatives; killing one must not stop
	// delivery.
	zones := []string{"/a/x", "/a/x", "/a/x", "/b/y"}
	c := newMCCluster(t, zones, 3, nil)

	// Find a representative of /a and crash it, but keep it listed in
	// the (now stale) aggregated row — the redundancy covers the gap
	// before failure detection catches up.
	row, ok := c.nodes[3].agent.Row("/", "a")
	if !ok {
		t.Fatal("no /a row at /b node")
	}
	reps, _ := row.Attrs[astrolabe.AttrReps].AsStrings()
	if len(reps) < 2 {
		t.Fatalf("want ≥2 reps for /a, got %v", reps)
	}
	c.net.Crash(reps[0])

	c.nodes[3].router.Publish(envelope("survives"), "/")
	c.eng.RunFor(5 * time.Second)

	delivered := 0
	for i, n := range c.nodes {
		if c.net.Crashed(n.agent.Addr()) {
			continue
		}
		if len(n.deliveredKeys()) == 1 {
			delivered++
		} else if n.agent.ZonePath() == "/a/x" {
			t.Logf("live /a node %d missed delivery", i)
		}
	}
	// The two live /a members plus the publisher must all have it.
	if delivered != 3 {
		t.Fatalf("delivered to %d live nodes, want 3", delivered)
	}
}

func TestMulticastSingleRepFailureLosesDelivery(t *testing.T) {
	// The contrast case for E6: with k=1 and the sole representative
	// dead, the zone is unreachable until reconfiguration.
	zones := []string{"/a/x", "/a/x", "/b/y"}
	c := newMCCluster(t, zones, 1, nil)

	row, _ := c.nodes[2].agent.Row("/", "a")
	reps, _ := row.Attrs[astrolabe.AttrReps].AsStrings()
	if len(reps) == 0 {
		t.Fatal("no reps for /a")
	}
	// With k=1 the default aggregation still lists up to 3 reps; force
	// the experiment by crashing all of them.
	for _, rep := range reps {
		c.net.Crash(rep)
	}

	c.nodes[2].router.Publish(envelope("lost"), "/")
	c.eng.RunFor(5 * time.Second)

	for i, n := range c.nodes[:2] {
		if c.net.Crashed(n.agent.Addr()) {
			continue
		}
		if len(n.deliveredKeys()) != 0 {
			t.Errorf("node %d in /a received despite dead reps", i)
		}
	}
}

func TestMulticastHopLimit(t *testing.T) {
	zones := []string{"/a/x", "/a/y"}
	c := newMCCluster(t, zones, 1, nil)
	msg := &wire.Message{
		Kind: wire.KindMulticast,
		Multicast: &wire.Multicast{
			TargetZone: "/",
			Hops:       1000, // over the limit
			Envelope:   envelope("too-far"),
		},
	}
	c.nodes[0].router.HandleMessage(msg)
	c.eng.RunFor(time.Second)
	for i, n := range c.nodes {
		if len(n.deliveredKeys()) != 0 {
			t.Errorf("node %d processed over-hop message", i)
		}
	}
}

func TestMulticastEnvelopeVerification(t *testing.T) {
	eng := sim.NewEngine(5)
	net := sim.NewNetwork(eng, sim.LinkModel{})
	var node mcNode
	ep := net.Attach("n0", func(m *wire.Message) { node.router.HandleMessage(m) })
	agent, err := astrolabe.NewAgent(astrolabe.Config{
		Name: "node-0", ZonePath: "/z", Transport: ep,
		Clock: eng.Clock(), Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(Config{
		View: agent, Transport: ep, Rand: rand.New(rand.NewSource(2)),
		Deliver: func(env *wire.ItemEnvelope) {
			node.mu.Lock()
			node.delivered = append(node.delivered, env.Key())
			node.mu.Unlock()
		},
		VerifyEnvelope: func(env *wire.ItemEnvelope) error {
			if env.Publisher != "trusted" {
				return fmt.Errorf("unknown publisher")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	node.agent, node.router = agent, router

	bad := envelope("evil")
	router.HandleMessage(&wire.Message{
		Kind:      wire.KindMulticast,
		Multicast: &wire.Multicast{TargetZone: "/z", Envelope: bad},
	})
	eng.RunFor(time.Second)
	if len(node.deliveredKeys()) != 0 {
		t.Fatal("unverified envelope delivered")
	}
	if st := router.Stats(); st.BadEnvelope != 1 {
		t.Fatalf("BadEnvelope = %d, want 1", st.BadEnvelope)
	}

	good := envelope("fine")
	good.Publisher = "trusted"
	router.HandleMessage(&wire.Message{
		Kind:      wire.KindMulticast,
		Multicast: &wire.Multicast{TargetZone: "/z", Envelope: good},
	})
	eng.RunFor(time.Second)
	if len(node.deliveredKeys()) != 1 {
		t.Fatal("verified envelope not delivered")
	}
}

func TestPublishValidatesScope(t *testing.T) {
	zones := []string{"/a/x"}
	c := newMCCluster(t, zones, 1, nil)
	if err := c.nodes[0].router.Publish(envelope("x"), "not-a-zone"); err == nil {
		t.Fatal("bad scope accepted")
	}
	if err := c.nodes[0].router.Publish(envelope("y"), ""); err != nil {
		t.Fatalf("empty scope should default to root: %v", err)
	}
}

// TestForwardingLogRecords checks that a router's forward spans, the one
// record of its forwarding decisions, name the published item's
// destinations. The name predates the spans and stays for the suite.
func TestForwardingLogRecords(t *testing.T) {
	zones := []string{"/a/x", "/b/y"}
	rec := trace.NewRing(0)
	c := newMCCluster(t, zones, 1, nil, traceHook(0, rec))
	c.nodes[0].router.Publish(envelope("logged"), "/")
	c.eng.RunFor(3 * time.Second)

	dests := forwardDests(rec, "test/logged#0", "")
	if len(dests) == 0 {
		t.Fatalf("no forward span names the published item: %+v", rec.Spans())
	}
	if dests[0] != c.nodes[1].agent.Addr() {
		t.Fatalf("forward went to %v, want %s", dests, c.nodes[1].agent.Addr())
	}
}

// traceHook records node i's spans into rec.
func traceHook(i int, rec trace.Recorder) func(int, *Config) {
	return func(j int, cfg *Config) {
		if j == i {
			cfg.Tracer = rec
		}
	}
}

// forwardDests lists the destinations of rec's forward spans for key,
// in the order they were sent, keeping only those toward zone unless
// zone is "".
func forwardDests(rec *trace.Ring, key, zone string) []string {
	var out []string
	for _, s := range rec.Spans() {
		if s.Kind == trace.KindForward && s.Key == key && (zone == "" || s.Zone == zone) {
			out = append(out, s.To)
		}
	}
	return out
}

func TestRouterStats(t *testing.T) {
	zones := []string{"/a/x", "/a/x", "/b/y"}
	c := newMCCluster(t, zones, 1, nil)
	c.nodes[0].router.Publish(envelope("s1"), "/")
	c.eng.RunFor(3 * time.Second)

	st := c.nodes[0].router.Stats()
	if st.Published != 1 {
		t.Errorf("Published = %d", st.Published)
	}
	if st.Forwarded == 0 {
		t.Errorf("Forwarded = 0")
	}
	if st.Delivered != 1 {
		t.Errorf("Delivered = %d, want 1 (own delivery)", st.Delivered)
	}
}

func TestLeafZoneRowsWithoutAddressSkipped(t *testing.T) {
	// A leaf row missing its addr attribute (malformed gossip) must be
	// skipped without panicking or blocking other deliveries.
	zones := []string{"/a/x", "/a/x"}
	c := newMCCluster(t, zones, 1, nil)

	// Inject a bogus member row with no address into node 0's leaf table.
	c.nodes[0].agent.MergeRows([]wire.RowUpdate{{
		Zone:   "/a/x",
		Name:   "ghost",
		Attrs:  nil,
		Issued: c.eng.Now(),
		Owner:  "ghost",
	}})
	c.nodes[0].router.Publish(envelope("no-addr"), "/")
	c.eng.RunFor(3 * time.Second)

	if len(c.nodes[1].deliveredKeys()) != 1 {
		t.Fatal("valid member missed delivery because of malformed row")
	}
}

func TestRouterIgnoresNonMulticast(t *testing.T) {
	zones := []string{"/a/x"}
	c := newMCCluster(t, zones, 1, nil)
	// Must be a no-op, not a panic.
	c.nodes[0].router.HandleMessage(&wire.Message{Kind: wire.KindGossipDigest,
		GossipDigest: &wire.GossipDigest{}})
	c.nodes[0].router.HandleMessage(&wire.Message{Kind: wire.KindMulticast})
	if len(c.nodes[0].deliveredKeys()) != 0 {
		t.Fatal("bogus messages caused deliveries")
	}
}

func TestDeliverFlagShortCircuits(t *testing.T) {
	// A Deliver-marked copy must be delivered (post-filter) and never
	// fanned out further.
	zones := []string{"/a/x", "/a/x"}
	c := newMCCluster(t, zones, 1, nil)
	before := c.nodes[0].router.Stats().Forwarded
	c.nodes[0].router.HandleMessage(&wire.Message{
		Kind: wire.KindMulticast,
		Multicast: &wire.Multicast{
			TargetZone: "/a/x",
			Deliver:    true,
			Envelope:   envelope("final-copy"),
		},
	})
	c.eng.RunFor(time.Second)
	if len(c.nodes[0].deliveredKeys()) != 1 {
		t.Fatal("final-delivery copy not delivered")
	}
	if got := c.nodes[0].router.Stats().Forwarded; got != before {
		t.Fatalf("final-delivery copy was forwarded (%d -> %d)", before, got)
	}
	if len(c.nodes[1].deliveredKeys()) != 0 {
		t.Fatal("final-delivery copy leaked to a peer")
	}
}

func TestDedupWindowBoundsMemory(t *testing.T) {
	eng := sim.NewEngine(6)
	net := sim.NewNetwork(eng, sim.LinkModel{})
	var node mcNode
	ep := net.Attach("n0", func(m *wire.Message) { node.router.HandleMessage(m) })
	agent, err := astrolabe.NewAgent(astrolabe.Config{
		Name: "node-0", ZonePath: "/z", Transport: ep,
		Clock: eng.Clock(), Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(Config{
		View: agent, Transport: ep, Rand: rand.New(rand.NewSource(2)),
		Deliver: func(env *wire.ItemEnvelope) {
			node.mu.Lock()
			node.delivered = append(node.delivered, env.Key())
			node.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	node.agent, node.router = agent, router

	// Deliver 10 more distinct items than the item table's 8,192-key
	// window holds: every distinct item is still delivered exactly once,
	// and the table stays inside its window.
	const window, n = 8192, 8192 + 10
	for i := 0; i < n; i++ {
		router.Publish(envelope(fmt.Sprintf("w-%d", i)), "/")
	}
	eng.RunUntilIdle(0)
	if got := len(node.deliveredKeys()); got != n {
		t.Fatalf("delivered %d distinct items, want %d", got, n)
	}
	if keys := router.items.Keys(); keys > window {
		t.Fatalf("dedup state holds %d keys, window is %d", keys, window)
	}
	// A recent duplicate is suppressed.
	before := len(node.deliveredKeys())
	router.Publish(envelope(fmt.Sprintf("w-%d", n-1)), "/")
	eng.RunUntilIdle(0)
	if got := len(node.deliveredKeys()); got != before {
		t.Fatalf("recent duplicate re-delivered (%d -> %d)", before, got)
	}
}

// reliableHook turns on ack/retry forwarding with a short virtual-time
// timeout; newMCCluster wires the engine's After automatically.
func reliableHook(timeout time.Duration) func(i int, cfg *Config) {
	return func(i int, cfg *Config) { cfg.AckTimeout = timeout }
}

// TestReliableMulticastSurvivesForwarderCrash takes its victim from the
// publisher's forward spans; the name stays for the suite.
func TestReliableMulticastSurvivesForwarderCrash(t *testing.T) {
	// k=1: a single representative forwards into /a. Crash it while its
	// row is still in every table — without retries the zone goes dark
	// (TestMulticastSingleRepFailureLosesDelivery); with ack/retry the
	// publisher times out and fails over to the next listed rep.
	zones := []string{"/a/x", "/a/x", "/a/x", "/b/y"}
	rec := trace.NewRing(0)
	c := newMCCluster(t, zones, 1, nil, reliableHook(200*time.Millisecond), traceHook(3, rec))

	row, ok := c.nodes[3].agent.Row("/", "a")
	if !ok {
		t.Fatal("no /a row at /b node")
	}
	if reps, _ := row.Attrs[astrolabe.AttrReps].AsStrings(); len(reps) < 2 {
		t.Fatalf("want ≥2 ranked reps for /a, got %v", reps)
	}

	// Publish, then crash the representative the forward actually chose
	// before the (≥5ms) link latency delivers it: a crash mid-forward.
	// Publish routes synchronously, so the publisher's forward spans
	// already name the destination.
	if err := c.nodes[3].router.Publish(envelope("failover"), "/"); err != nil {
		t.Fatal(err)
	}
	victims := forwardDests(rec, "test/failover#0", "/a")
	if len(victims) != 1 {
		t.Fatalf("publisher's spans name %v as /a forwarders, want one", victims)
	}
	c.net.Crash(victims[0])
	c.eng.RunFor(10 * time.Second)

	for i, n := range c.nodes {
		if c.net.Crashed(n.agent.Addr()) {
			continue
		}
		if got := len(n.deliveredKeys()); got != 1 {
			t.Errorf("live node %d delivered %d copies, want 1", i, got)
		}
	}
	st := c.nodes[3].router.Stats()
	if st.RetriesSent == 0 {
		t.Error("publisher never retried the dead representative")
	}
	if st.FailoversTotal == 0 {
		t.Error("publisher never failed over to an alternate representative")
	}
}

func TestReliableMulticastNoDuplicatesUnderLostAcks(t *testing.T) {
	// Asymmetric partition: forwards from n0 arrive at n1 but acks back
	// are lost. n0 retransmits until MaxAttempts; n1 must deliver exactly
	// once (dedup absorbs the retries).
	zones := []string{"/a/x", "/a/x"}
	c := newMCCluster(t, zones, 1, nil, reliableHook(200*time.Millisecond))

	c.net.PartitionOneWay([]string{"n1"}, []string{"n0"})
	if err := c.nodes[0].router.Publish(envelope("once"), "/"); err != nil {
		t.Fatal(err)
	}
	c.eng.RunFor(15 * time.Second)

	if got := c.nodes[1].deliveredKeys(); len(got) != 1 {
		t.Fatalf("node 1 delivered %d copies, want exactly 1: %v", len(got), got)
	}
	st0 := c.nodes[0].router.Stats()
	if st0.RetriesSent == 0 {
		t.Error("lost acks should force retransmissions")
	}
	if st0.DeliveryFailures == 0 {
		t.Error("exhausted retries should count a delivery failure")
	}
	if st1 := c.nodes[1].router.Stats(); st1.Duplicates == 0 {
		t.Error("retransmits should hit node 1's duplicate suppression")
	}
	if c.nodes[0].router.PendingAcks() != 0 {
		t.Error("pending table should drain after MaxAttempts")
	}
}

func TestReliableMulticastAcksClearPending(t *testing.T) {
	zones := []string{"/a/x", "/a/x", "/b/y"}
	c := newMCCluster(t, zones, 1, nil, reliableHook(time.Second))

	if err := c.nodes[0].router.Publish(envelope("clean"), "/"); err != nil {
		t.Fatal(err)
	}
	c.eng.RunFor(10 * time.Second)

	for i, n := range c.nodes {
		if got := len(n.deliveredKeys()); got != 1 {
			t.Errorf("node %d delivered %d copies, want 1", i, got)
		}
		if p := n.router.PendingAcks(); p != 0 {
			t.Errorf("node %d still has %d pending acks", i, p)
		}
	}
	st := c.nodes[0].router.Stats()
	if st.AcksReceived == 0 {
		t.Error("publisher received no acks on a healthy network")
	}
	if st.RetriesSent != 0 {
		t.Errorf("healthy lossless network should need no retries, got %d", st.RetriesSent)
	}
}

func TestReliableRetriesHealLinkLoss(t *testing.T) {
	// 100% loss on the first-choice path forces the ack deadline every
	// time; retries (to the same or an alternate address) must still get
	// the item through.
	zones := []string{"/a/x", "/a/x"}
	c := newMCCluster(t, zones, 1, nil, reliableHook(200*time.Millisecond))

	// Drop the first transmission n0->n1 only: after one loss, restore.
	c.net.SetLinkLoss("n0", "n1", 1.0)
	if err := c.nodes[0].router.Publish(envelope("heal"), "/"); err != nil {
		t.Fatal(err)
	}
	c.eng.RunFor(150 * time.Millisecond) // first copy lost in flight
	c.net.ClearLinkLoss("n0", "n1")
	c.eng.RunFor(10 * time.Second)

	if got := len(c.nodes[1].deliveredKeys()); got != 1 {
		t.Fatalf("node 1 delivered %d copies, want 1", got)
	}
	if st := c.nodes[0].router.Stats(); st.RetriesSent == 0 {
		t.Error("lost first copy should have been retried")
	}
}

// TestRoutingLeavesSharedRepListsIntact guards the no-copy read accessor
// (value.RawStrings) that gossip, failover and recovery use on `reps`
// lists. A row's attribute values are shared by every replica of the row —
// in a simulation, by every agent in the process — and forwardToRow
// shuffles the list it forwards by, so it must shuffle a copy. Routing
// 1,000 items from a representative, with a reader on the shared lists the
// whole time, must leave every list in place and bit-identical; under
// -race an in-place shuffle is also a reported write/read race.
func TestRoutingLeavesSharedRepListsIntact(t *testing.T) {
	zones := []string{
		"/usa/ny", "/usa/ny", "/usa/ny", "/usa/ca", "/usa/ca", "/usa/ca",
		"/asia/jp", "/asia/jp", "/asia/jp", "/asia/cn", "/asia/cn", "/asia/cn",
	}
	c := newMCCluster(t, zones, 2, nil)

	type repList struct {
		where string
		list  []string // the shared slice itself
		want  []string // its content before routing
	}
	var lists []repList
	for i, n := range c.nodes {
		for _, zone := range n.agent.Chain() {
			rows, _ := n.agent.Table(zone)
			for _, row := range rows {
				if reps, ok := row.Attrs[astrolabe.AttrReps].RawStrings(); ok {
					lists = append(lists, repList{
						where: fmt.Sprintf("node %d table %s row %s", i, zone, row.Name),
						list:  reps,
						want:  append([]string(nil), reps...),
					})
				}
			}
		}
	}
	multi := 0
	for _, l := range lists {
		if len(l.list) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no row lists more than one representative: nothing a shuffle could reorder")
	}
	var publisher *mcNode
	for _, n := range c.nodes {
		if n.agent.IsRepresentative("/") {
			publisher = n
			break
		}
	}
	if publisher == nil {
		t.Fatal("no root-level representative elected")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, l := range lists {
				for i := range l.list {
					if l.list[i] != l.want[i] {
						t.Errorf("%s: reps[%d] read as %q mid-routing, want %q", l.where, i, l.list[i], l.want[i])
						return
					}
				}
			}
		}
	}()
	const items = 1000
	for i := 0; i < items; i++ {
		if err := publisher.router.Publish(envelope(fmt.Sprintf("story-%d", i)), "/"); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			c.eng.RunFor(time.Second)
		}
	}
	c.eng.RunFor(5 * time.Second)
	close(stop)
	wg.Wait()

	for i, n := range c.nodes {
		if got := len(n.deliveredKeys()); got != items {
			t.Errorf("node %d delivered %d of %d items: the routing under test did not run", i, got, items)
		}
	}
	for _, l := range lists {
		for i := range l.list {
			if l.list[i] != l.want[i] {
				t.Fatalf("%s: reps = %v after routing, want %v", l.where, l.list, l.want)
			}
		}
	}
}

// TestRetryBackoffSaturates drives one forward through 40 attempts with a
// 1 s AckTimeout: the doubling delay passes the largest Duration at the
// 35th, and must saturate there rather than wrap negative (which would
// fire every later retry at once).
func TestRetryBackoffSaturates(t *testing.T) {
	const attempts = 40
	var delays []time.Duration
	var deadlines []func()
	v := &frameView{zone: "/z", name: "self", addr: "self:0", members: map[string]string{"m1": "m1:0"}}
	r, err := NewRouter(Config{
		View:        v,
		Transport:   &frameTransport{addr: "self:0"},
		Rand:        rand.New(rand.NewSource(1)),
		Deliver:     func(*wire.ItemEnvelope) {},
		AckTimeout:  time.Second,
		MaxAttempts: attempts,
		After: func(d time.Duration, fn func()) {
			delays = append(delays, d)
			deadlines = append(deadlines, fn)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Publish(envelope("backoff"), "/z"); err != nil {
		t.Fatal(err)
	}
	for len(deadlines) < attempts {
		n := len(deadlines)
		deadlines[n-1]()
		if len(deadlines) == n {
			t.Fatalf("attempt %d armed no deadline", n+1)
		}
	}
	for i, d := range delays {
		if d <= 0 {
			t.Fatalf("attempt %d scheduled delay %v, want positive", i+1, d)
		}
		if i > 0 && d < delays[i-1] {
			t.Fatalf("attempt %d scheduled delay %v, shorter than attempt %d's %v", i+1, d, i, delays[i-1])
		}
	}
}
