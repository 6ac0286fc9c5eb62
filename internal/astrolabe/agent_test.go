package astrolabe

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"newswire/internal/sim"
	"newswire/internal/sqlagg"
	"newswire/internal/value"
	"newswire/internal/wire"
)

// testCluster drives a set of agents on a simulated network.
type testCluster struct {
	t      *testing.T
	eng    *sim.Engine
	net    *sim.Network
	agents []*Agent
}

// newTestCluster builds one agent per given leaf zone path (addresses
// n0, n1, ...), fully bootstrapped with each other's leaf rows, and wires
// inbound messages to HandleMessage.
func newTestCluster(t *testing.T, zones []string, opts func(i int, cfg *Config)) *testCluster {
	t.Helper()
	c := newStrangerCluster(t, zones, opts)
	// Bootstrap: every agent is introduced to every other agent's chain
	// rows (same-zone peers contribute leaf rows; distant peers
	// contribute the aggregated zone rows of the tables they share).
	for _, a := range c.agents {
		var seeds []wire.RowUpdate
		for _, b := range c.agents {
			if b != a {
				seeds = append(seeds, b.ChainRowUpdates()...)
			}
		}
		a.MergeRows(seeds)
	}
	return c
}

// newStrangerCluster is newTestCluster before the introductions: every
// agent knows only itself.
func newStrangerCluster(t *testing.T, zones []string, opts func(i int, cfg *Config)) *testCluster {
	t.Helper()
	eng := sim.NewEngine(12345)
	net := sim.NewNetwork(eng, sim.LinkModel{
		LatencyMin: 5 * time.Millisecond,
		LatencyMax: 40 * time.Millisecond,
	})
	c := &testCluster{t: t, eng: eng, net: net}
	for i, zone := range zones {
		addr := fmt.Sprintf("n%d", i)
		var agent *Agent
		ep := net.Attach(addr, func(m *wire.Message) { agent.HandleMessage(m) })
		cfg := Config{
			Name:           fmt.Sprintf("node-%d", i),
			ZonePath:       zone,
			Transport:      ep,
			Clock:          eng.Clock(),
			Rand:           rand.New(rand.NewSource(int64(i) + 1)),
			GossipInterval: time.Second,
		}
		if opts != nil {
			opts(i, &cfg)
		}
		a, err := NewAgent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		agent = a
		c.agents = append(c.agents, a)
	}
	return c
}

// runRounds advances the cluster r gossip rounds: every agent Ticks once
// per simulated second, and the network drains between rounds.
func (c *testCluster) runRounds(r int) {
	for i := 0; i < r; i++ {
		for _, a := range c.agents {
			a.Tick()
		}
		c.eng.RunFor(time.Second)
	}
}

func TestNewAgentValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	net := sim.NewNetwork(eng, sim.LinkModel{})
	ep := net.Attach("x", func(*wire.Message) {})
	base := Config{
		Name: "n", ZonePath: "/z", Transport: ep,
		Clock: eng.Clock(), Rand: rand.New(rand.NewSource(1)),
	}

	if _, err := NewAgent(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := base
	bad.Name = ""
	if _, err := NewAgent(bad); err == nil {
		t.Error("empty name accepted")
	}
	bad = base
	bad.ZonePath = "no-slash"
	if _, err := NewAgent(bad); err == nil {
		t.Error("bad zone path accepted")
	}
	bad = base
	bad.ZonePath = "/"
	if _, err := NewAgent(bad); err == nil {
		t.Error("root zone accepted as leaf")
	}
	bad = base
	bad.Transport = nil
	if _, err := NewAgent(bad); err == nil {
		t.Error("nil transport accepted")
	}
	bad = base
	bad.Clock = nil
	if _, err := NewAgent(bad); err == nil {
		t.Error("nil clock accepted")
	}
	bad = base
	bad.Rand = nil
	if _, err := NewAgent(bad); err == nil {
		t.Error("nil rand accepted")
	}
}

func TestAgentOwnRowInLeafTable(t *testing.T) {
	c := newTestCluster(t, []string{"/usa/ny"}, nil)
	a := c.agents[0]
	rows, ok := a.Table("/usa/ny")
	if !ok || len(rows) != 1 {
		t.Fatalf("leaf table = %v, %v", rows, ok)
	}
	if rows[0].Name != "node-0" {
		t.Fatalf("row name = %q", rows[0].Name)
	}
	if addr, _ := rows[0].Attrs[AttrAddr].AsString(); addr != "n0" {
		t.Fatalf("addr attr = %q", addr)
	}
	if _, ok := a.Table("/nonexistent"); ok {
		t.Fatal("Table should report unknown zones")
	}
}

func TestAgentBootstrapAggregation(t *testing.T) {
	// A single agent immediately aggregates itself up to the root.
	c := newTestCluster(t, []string{"/usa/ny"}, nil)
	a := c.agents[0]

	// "/usa" table must contain a row for "ny".
	row, ok := a.Row("/usa", "ny")
	if !ok {
		t.Fatal("missing aggregate row for /usa/ny in /usa")
	}
	if n, _ := row.Attrs[AttrMembers].AsInt(); n != 1 {
		t.Fatalf("nmembers = %v, want 1", row.Attrs[AttrMembers])
	}
	reps, _ := row.Attrs[AttrReps].AsStrings()
	if len(reps) != 1 || reps[0] != "n0" {
		t.Fatalf("reps = %v, want [n0]", reps)
	}
	// Root table must contain a row for "usa" with the same member count.
	rootRow, ok := a.Row("/", "usa")
	if !ok {
		t.Fatal("missing aggregate row for /usa in root")
	}
	if n, _ := rootRow.Attrs[AttrMembers].AsInt(); n != 1 {
		t.Fatalf("root nmembers = %v, want 1", rootRow.Attrs[AttrMembers])
	}
	// A lone agent is the representative of its chain.
	if !a.IsRepresentative("/usa") || !a.IsRepresentative("/") {
		t.Fatal("lone agent must represent its chain")
	}
}

func TestAgentSetAttrReissues(t *testing.T) {
	c := newTestCluster(t, []string{"/z"}, nil)
	a := c.agents[0]
	before, _ := a.Row("/z", "node-0")

	c.eng.RunFor(time.Second)
	a.SetAttr("custom", value.Int(42))

	after, _ := a.Row("/z", "node-0")
	if !after.Issued.After(before.Issued) {
		t.Fatal("SetAttr did not re-issue the row")
	}
	if v, _ := a.Attr("custom").AsInt(); v != 42 {
		t.Fatalf("Attr(custom) = %v", a.Attr("custom"))
	}
	// Clearing with an invalid value removes the attribute.
	a.SetAttr("custom", value.Invalid())
	if a.Attr("custom").IsValid() {
		t.Fatal("invalid SetAttr did not remove attribute")
	}
}

func TestAgentSetAttrsBatch(t *testing.T) {
	c := newTestCluster(t, []string{"/z"}, nil)
	a := c.agents[0]
	a.SetAttrs(value.Map{
		AttrLoad: value.Float(0.7),
		"color":  value.String("blue"),
	})
	if v, _ := a.Attr(AttrLoad).AsFloat(); v != 0.7 {
		t.Fatalf("load = %v", a.Attr(AttrLoad))
	}
	if v, _ := a.Attr("color").AsString(); v != "blue" {
		t.Fatalf("color = %v", a.Attr("color"))
	}
}

func TestLeafGossipConverges(t *testing.T) {
	zones := []string{"/z", "/z", "/z", "/z"}
	c := newTestCluster(t, zones, nil)

	// Agent 0 publishes an attribute; after a few rounds every peer's
	// replica of the leaf table must reflect it.
	c.agents[0].SetAttr("headline", value.String("war over"))
	c.runRounds(6)

	for i, a := range c.agents {
		row, ok := a.Row("/z", "node-0")
		if !ok {
			t.Fatalf("agent %d lost node-0's row", i)
		}
		if s, _ := row.Attrs["headline"].AsString(); s != "war over" {
			t.Fatalf("agent %d has headline %v", i, row.Attrs["headline"])
		}
	}
}

func TestHierarchicalGossipConverges(t *testing.T) {
	// Two leaf zones under the root; reps must exchange aggregates so
	// both sides see each other's member counts at the root.
	zones := []string{"/usa/ny", "/usa/ny", "/asia/jp", "/asia/jp"}
	c := newTestCluster(t, zones, nil)
	c.runRounds(10)

	for i, a := range c.agents {
		usa, ok1 := a.Row("/", "usa")
		asia, ok2 := a.Row("/", "asia")
		if !ok1 || !ok2 {
			t.Fatalf("agent %d root table incomplete: usa=%v asia=%v", i, ok1, ok2)
		}
		if n, _ := usa.Attrs[AttrMembers].AsInt(); n != 2 {
			t.Fatalf("agent %d sees usa nmembers=%v, want 2", i, usa.Attrs[AttrMembers])
		}
		if n, _ := asia.Attrs[AttrMembers].AsInt(); n != 2 {
			t.Fatalf("agent %d sees asia nmembers=%v, want 2", i, asia.Attrs[AttrMembers])
		}
	}
}

func TestBloomFilterAggregatesToRoot(t *testing.T) {
	zones := []string{"/usa/ny", "/usa/ny", "/asia/jp", "/asia/jp"}
	c := newTestCluster(t, zones, nil)

	// Each agent sets a distinct subscription bit.
	for i, a := range c.agents {
		mask := make([]byte, 4)
		mask[i] = 0xFF
		a.SetAttr(AttrSubs, value.Bytes(mask))
	}
	c.runRounds(10)

	// Every agent's root-level rows must OR together all four masks.
	for i, a := range c.agents {
		var merged [4]byte
		for _, name := range []string{"usa", "asia"} {
			row, ok := a.Row("/", name)
			if !ok {
				t.Fatalf("agent %d missing root row %s", i, name)
			}
			subs, ok := row.Attrs[AttrSubs].RawBytes()
			if !ok {
				t.Fatalf("agent %d root row %s has no subs", i, name)
			}
			for j, b := range subs {
				merged[j] |= b
			}
		}
		for j, b := range merged {
			if b != 0xFF {
				t.Fatalf("agent %d: root subs byte %d = %x, want FF", i, j, b)
			}
		}
	}
}

func TestFailureDetectionEvictsDeadAgent(t *testing.T) {
	zones := []string{"/z", "/z", "/z"}
	c := newTestCluster(t, zones, nil)
	c.runRounds(3)

	// Everyone knows everyone.
	for i, a := range c.agents {
		if rows, _ := a.Table("/z"); len(rows) != 3 {
			t.Fatalf("agent %d sees %d rows before crash", i, len(rows))
		}
	}

	// Crash agent 2: it stops ticking and the network drops its traffic.
	c.net.Crash("n2")
	dead := c.agents[2]
	c.agents = c.agents[:2]
	_ = dead

	// The leaf timeout is failRounds intervals; run past it.
	c.runRounds(13)

	for i, a := range c.agents {
		if _, ok := a.Row("/z", "node-2"); ok {
			t.Fatalf("agent %d still has the dead agent's row", i)
		}
		if rows, _ := a.Table("/z"); len(rows) != 2 {
			t.Fatalf("agent %d sees %d rows after eviction", i, len(rows))
		}
	}
}

func TestZoneReconfigurationAfterRepFailure(t *testing.T) {
	// Representative election must recover after the current reps die.
	zones := []string{"/usa/a", "/usa/a", "/usa/a", "/usa/a", "/usa/b"}
	aggr := sqlagg.MustParse(`SELECT
		SUM(COALESCE(nmembers, 1)) AS nmembers,
		MINK(1, load, addr) AS reps,
		MINV(load, addr) AS addr,
		MIN(load) AS load`)
	c := newTestCluster(t, zones, func(i int, cfg *Config) {
		cfg.Aggregation = aggr
	})
	// Give agent 0 the lowest load so it is the elected rep of /usa/a.
	for i, a := range c.agents {
		a.SetAttr(AttrLoad, value.Float(float64(i)*0.1))
	}
	c.runRounds(8)

	aRow, ok := c.agents[4].Row("/usa", "a")
	if !ok {
		t.Fatal("agent in /usa/b does not see zone a")
	}
	reps, _ := aRow.Attrs[AttrReps].AsStrings()
	if len(reps) != 1 || reps[0] != "n0" {
		t.Fatalf("initial rep = %v, want [n0]", reps)
	}

	// Kill the representative.
	c.net.Crash("n0")
	live := []*Agent{c.agents[1], c.agents[2], c.agents[3], c.agents[4]}
	c.agents = live
	c.runRounds(14)

	aRow, ok = c.agents[len(c.agents)-1].Row("/usa", "a")
	if !ok {
		t.Fatal("zone a vanished after rep failure")
	}
	reps, _ = aRow.Attrs[AttrReps].AsStrings()
	if len(reps) != 1 || reps[0] != "n1" {
		t.Fatalf("reconfigured rep = %v, want [n1]", reps)
	}
}

func TestPrefixRuleAggregation(t *testing.T) {
	zones := []string{"/z", "/z"}
	c := newTestCluster(t, zones, func(i int, cfg *Config) {
		cfg.PrefixRules = []PrefixRule{{Prefix: "peak_", Op: PrefixMax}}
	})
	c.agents[0].SetAttr("peak_queue", value.Int(3))
	c.agents[1].SetAttr("peak_queue", value.Int(7))
	c.agents[1].SetAttr("peak_heap", value.Int(40))
	c.runRounds(6)

	row, ok := c.agents[0].Row("/", "z")
	if !ok {
		t.Fatal("missing root aggregate")
	}
	// Each attribute name under the prefix aggregates on its own.
	if q, ok := row.Attrs["peak_queue"].AsInt(); !ok || q != 7 {
		t.Fatalf("peak_queue = %v, want 7", row.Attrs["peak_queue"])
	}
	if h, ok := row.Attrs["peak_heap"].AsInt(); !ok || h != 40 {
		t.Fatalf("peak_heap = %v, want 40", row.Attrs["peak_heap"])
	}
}

func TestRowVerificationRejectsTampered(t *testing.T) {
	rejected := 0
	c := newTestCluster(t, []string{"/z", "/z"}, func(i int, cfg *Config) {
		if i == 0 {
			cfg.VerifyRow = func(r *wire.RowUpdate) error {
				if _, bad := r.Attrs["evil"]; bad {
					rejected++
					return fmt.Errorf("tampered")
				}
				return nil
			}
		}
	})
	c.agents[1].SetAttr("evil", value.Bool(true))
	c.runRounds(4)

	if rejected == 0 {
		t.Fatal("verifier never invoked")
	}
	row, ok := c.agents[0].Row("/z", "node-1")
	// The bootstrap seeded node-1's original row (without "evil"); the
	// tampered update must have been rejected.
	if ok {
		if _, bad := row.Attrs["evil"]; bad {
			t.Fatal("tampered row merged despite failing verification")
		}
	}
}

func TestStatsProgress(t *testing.T) {
	c := newTestCluster(t, []string{"/z", "/z"}, nil)
	c.runRounds(4)
	st := c.agents[0].Stats()
	if st.GossipsSent == 0 {
		t.Error("no gossips sent")
	}
	if st.GossipsReceived == 0 && st.RepliesReceived == 0 {
		t.Error("no gossip traffic received")
	}
	if st.RowsMerged == 0 {
		t.Error("no rows merged")
	}
}

func TestMergeIgnoresUnknownZonesAndOwnRow(t *testing.T) {
	c := newTestCluster(t, []string{"/z"}, nil)
	a := c.agents[0]
	ownBefore, _ := a.Row("/z", "node-0")

	// Zones a peer may name that the agent does not replicate: malformed
	// paths ("/z/" counts more levels than the chain has), a sibling at
	// the leaf's depth, and a path deeper than the chain.
	unknown := []string{"", "//z", "/z/", "/other", "/z/a/b"}
	before := a.Stats()
	rows := []wire.RowUpdate{
		{Zone: "/z", Name: "node-0", Attrs: value.Map{"hijack": value.Bool(true)},
			Issued: c.eng.Now().Add(time.Hour), Owner: "evil"},
	}
	var refs []wire.RowRef
	for _, zone := range unknown {
		rows = append(rows, wire.RowUpdate{Zone: zone, Name: "x", Attrs: value.Map{}, Issued: c.eng.Now()})
		refs = append(refs, wire.RowRef{Zone: zone, Name: "x"}, wire.RowRef{Zone: zone, Name: "node-0"})
	}
	a.MergeRows(rows)
	a.HandleMessage(&wire.Message{Kind: wire.KindGossipDelta, From: "n9",
		GossipDelta: &wire.GossipDelta{FromZone: "/z", Want: refs}})
	if after := a.Stats(); after.RowsMerged != before.RowsMerged || after.GossipBytesSent != before.GossipBytesSent {
		t.Fatalf("rows of unknown zones merged or served: %+v, was %+v", after, before)
	}
	for _, zone := range unknown {
		if _, ok := a.Table(zone); ok {
			t.Fatalf("table of unknown zone %q materialized", zone)
		}
	}

	ownAfter, _ := a.Row("/z", "node-0")
	if _, hijacked := ownAfter.Attrs["hijack"]; hijacked {
		t.Fatal("own row was overwritten by remote update")
	}
	if !ownAfter.Issued.Equal(ownBefore.Issued) {
		t.Fatal("own row issue time changed")
	}
}

func TestMergeFreshnessRule(t *testing.T) {
	c := newTestCluster(t, []string{"/z", "/z"}, nil)
	a := c.agents[0]
	now := c.eng.Now()

	fresh := wire.RowUpdate{
		Zone: "/z", Name: "node-1",
		Attrs:  value.Map{"v": value.Int(2)},
		Issued: now.Add(time.Minute),
		Owner:  "n1",
	}
	stale := wire.RowUpdate{
		Zone: "/z", Name: "node-1",
		Attrs:  value.Map{"v": value.Int(1)},
		Issued: now,
		Owner:  "n1",
	}
	a.MergeRows([]wire.RowUpdate{fresh})
	a.MergeRows([]wire.RowUpdate{stale})
	row, _ := a.Row("/z", "node-1")
	if v, _ := row.Attrs["v"].AsInt(); v != 2 {
		t.Fatalf("stale row overwrote fresh: v=%v", row.Attrs["v"])
	}
}

func TestDeterministicTieBreakOnEqualTimestamps(t *testing.T) {
	c := newTestCluster(t, []string{"/z", "/z"}, nil)
	a, b := c.agents[0], c.agents[1]
	now := c.eng.Now().Add(time.Minute)

	u1 := wire.RowUpdate{Zone: "/z", Name: "ghost", Attrs: value.Map{"x": value.Int(1)}, Issued: now}
	u2 := wire.RowUpdate{Zone: "/z", Name: "ghost", Attrs: value.Map{"x": value.Int(2)}, Issued: now}

	// Deliver in opposite orders to the two agents.
	a.MergeRows([]wire.RowUpdate{u1})
	a.MergeRows([]wire.RowUpdate{u2})
	b.MergeRows([]wire.RowUpdate{u2})
	b.MergeRows([]wire.RowUpdate{u1})

	ra, _ := a.Row("/z", "ghost")
	rb, _ := b.Row("/z", "ghost")
	if !ra.Attrs.Equal(rb.Attrs) {
		t.Fatalf("replicas diverged on timestamp tie: %v vs %v", ra.Attrs, rb.Attrs)
	}
}

func TestIsRepresentativeNonChainZone(t *testing.T) {
	c := newTestCluster(t, []string{"/usa/ny"}, nil)
	a := c.agents[0]
	if a.IsRepresentative("/asia") {
		t.Fatal("agent represents a zone not on its chain")
	}
	if !a.IsRepresentative("/usa/ny") {
		t.Fatal("agent must participate at its own leaf level")
	}
}

func TestChainAndAccessors(t *testing.T) {
	c := newTestCluster(t, []string{"/usa/ny"}, nil)
	a := c.agents[0]
	if a.Name() != "node-0" || a.Addr() != "n0" || a.ZonePath() != "/usa/ny" {
		t.Fatalf("accessors: %q %q %q", a.Name(), a.Addr(), a.ZonePath())
	}
	chain := a.Chain()
	if len(chain) != 3 || chain[0] != "/" || chain[2] != "/usa/ny" {
		t.Fatalf("chain = %v", chain)
	}
}

func TestPartitionHeal(t *testing.T) {
	// Two zones partitioned from each other evict each other's aggregate
	// rows after the aggregate timeout (aggFailRounds gossip intervals),
	// then rediscover and reconverge when the partition heals (the seed
	// rows are re-exchanged through gossip replies because each side still
	// replicates the root table).
	zones := []string{"/a/x", "/a/x", "/b/y", "/b/y"}
	c := newTestCluster(t, zones, nil)
	c.runRounds(5)

	// Both sides see both zones.
	if _, ok := c.agents[0].Row("/", "b"); !ok {
		t.Fatal("zone b invisible before partition")
	}

	sideA := []string{"n0", "n1"}
	sideB := []string{"n2", "n3"}
	c.net.Partition(sideA, sideB)
	c.runRounds(aggFailRounds + 2) // beyond the aggregate timeout

	if _, ok := c.agents[0].Row("/", "b"); ok {
		t.Fatal("partitioned zone b not evicted after the aggregate timeout")
	}
	if _, ok := c.agents[2].Row("/", "a"); ok {
		t.Fatal("partitioned zone a not evicted after the aggregate timeout")
	}

	// Heal and re-introduce (a fresh introduction is required once the
	// sides have fully forgotten each other; any surviving replica would
	// have reconnected them automatically).
	c.net.Heal(sideA, sideB)
	c.agents[0].MergeRows(c.agents[2].ChainRowUpdates())
	c.runRounds(8)

	for i, a := range c.agents {
		if _, ok := a.Row("/", "a"); !ok {
			t.Errorf("agent %d missing zone a after heal", i)
		}
		if _, ok := a.Row("/", "b"); !ok {
			t.Errorf("agent %d missing zone b after heal", i)
		}
	}
}

func TestGossipConvergesUnderLossAndDisorder(t *testing.T) {
	// Property-style check: despite 20% loss and random per-agent tick
	// jitter, all replicas of an attribute converge.
	eng := sim.NewEngine(4242)
	net := sim.NewNetwork(eng, sim.LinkModel{
		LatencyMin: 5 * time.Millisecond,
		LatencyMax: 200 * time.Millisecond,
		LossRate:   0.2,
	})
	var agents []*Agent
	for i := 0; i < 8; i++ {
		addr := fmt.Sprintf("n%d", i)
		var agent *Agent
		ep := net.Attach(addr, func(m *wire.Message) { agent.HandleMessage(m) })
		a, err := NewAgent(Config{
			Name: fmt.Sprintf("node-%d", i), ZonePath: "/z",
			Transport: ep, Clock: eng.Clock(),
			Rand:           rand.New(rand.NewSource(int64(i) * 17)),
			GossipInterval: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		agent = a
		agents = append(agents, a)
	}
	for _, a := range agents {
		var seeds []wire.RowUpdate
		for _, b := range agents {
			if b != a {
				seeds = append(seeds, b.OwnRowUpdate())
			}
		}
		a.MergeRows(seeds)
	}
	// Each agent ticks on its own jittered schedule.
	for i, a := range agents {
		a := a
		eng.Every(time.Second, 0.5+float64(i%3)*0.1, a.Tick)
	}
	agents[3].SetAttr("flag", value.Int(77))
	eng.RunFor(40 * time.Second)

	for i, a := range agents {
		row, ok := a.Row("/z", "node-3")
		if !ok {
			t.Fatalf("agent %d lost node-3's row", i)
		}
		if v, _ := row.Attrs["flag"].AsInt(); v != 77 {
			t.Fatalf("agent %d has flag=%v, not converged", i, row.Attrs["flag"])
		}
	}
}
