package core

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"newswire/internal/astrolabe"
	"newswire/internal/pubsub"
	"newswire/internal/sim"
	"newswire/internal/trace"
	"newswire/internal/value"
	"newswire/internal/wire"
)

// ClusterConfig describes a simulated NewsWire deployment.
type ClusterConfig struct {
	// N is the number of nodes.
	N int
	// Branching bounds both members per leaf zone and child zones per
	// parent (the paper's "each of these tables is limited to some small
	// size (say, 64-rows)"). Default 64.
	Branching int
	// Link models every network link. Default sim.DefaultWAN.
	Link sim.LinkModel
	// Seed makes the whole run reproducible.
	Seed int64
	// GossipInterval is each node's Tick cadence. Default 2s.
	GossipInterval time.Duration
	// Customize, when set, adjusts each node's Config before creation
	// (the cluster fills Transport/Clock/Rand/Name/ZonePath itself).
	Customize func(i int, cfg *Config)
	// Workers selects the execution mode: 0 runs the original serial
	// event loop; >= 1 runs the deterministic parallel executor with
	// that many workers; -1 sizes the pool to GOMAXPROCS. Both modes
	// produce bit-identical tables for the same seed (see
	// sim/parallel.go for the construction).
	Workers int
	// Trace attaches a per-node trace.Collector to every node. Tracing
	// never touches the engine's RNG or event order, so traced runs
	// produce tables bit-identical to untraced runs, and the collector's
	// canonical span order is identical between serial and parallel
	// execution of the same seed.
	Trace bool
	// VirtualSubjects, when non-empty, turns on virtual leaves and is the
	// subscription set of every member. Quiescent leaf members are packed
	// into per-zone template rows advertising the matching Bloom filter
	// and delivery bitsets instead of full Node instances (see
	// virtual.go). Only the first materializedPerZone members of each
	// leaf zone get real agents, subscribed during construction; Nodes
	// holds nil for the rest until MaterializeNode is called. Requires
	// ModeBloom (a Customize that sets another Mode is rejected), and
	// assumes the default pub/sub geometry.
	VirtualSubjects []string
}

// virtualLeaves reports whether the cluster packs quiescent members
// (ClusterConfig.VirtualSubjects).
func (cfg *ClusterConfig) virtualLeaves() bool { return len(cfg.VirtualSubjects) > 0 }

// materializedPerZone is how many leading members of each leaf zone are
// real agents under virtual leaves: the default aggregation elects 3
// representatives, which must be able to act, plus one plain member so
// delivery latency is sampled at a non-representative too.
const materializedPerZone = 4

// Cluster is a set of simulated nodes arranged in a balanced zone tree.
type Cluster struct {
	Eng   *sim.Engine
	Net   *sim.Network
	Nodes []*Node

	cfg     ClusterConfig
	exec    *sim.Executor
	tracer  *trace.Collector
	tickers []*sim.Ticker

	// ownerNode maps a parallel-executor owner index to the node index
	// it drives, or -1 for a virtual-zone sink owner.
	ownerNode []int
	// tickOrder lists owner slots sorted by node index — the commit order
	// of the parallel tick phase. Construction registers owners in index
	// order, but MaterializeNode appends its owner at the end, so without
	// re-sorting a materialized node's tick effects would commit (and
	// consume the engine RNG) after everyone else's instead of at its
	// index position, breaking serial≡parallel. Rebuilt lazily when
	// owners were added.
	tickOrder []int
	// Virtual-leaf bookkeeping (virtual.go); empty without VirtualSubjects.
	vzones      []*virtualZone
	vzoneByPath map[string]*virtualZone
	rounds      int
}

// Tracer returns the cluster's span collector, or nil when ClusterConfig
// Trace was off.
func (c *Cluster) Tracer() *trace.Collector { return c.tracer }

// TraceSpans returns every recorded span in canonical deterministic order
// (nil without tracing).
func (c *Cluster) TraceSpans() []trace.Span {
	if c.tracer == nil {
		return nil
	}
	return c.tracer.Spans()
}

// ZonePathFor computes node i's leaf zone in a balanced tree with the
// given branching: nodes fill leaf zones of up to b members; leaf zones
// fill parents of up to b children; and so on until one root level
// suffices. Paths look like "/z04/z12".
func ZonePathFor(i, n, b int) string {
	if b < 2 {
		b = 2
	}
	// Number of leaf zones and tree depth above them.
	leafZone := i / b
	numLeafZones := (n + b - 1) / b
	// Build the zone index path from the leaf zone upward.
	var indices []int
	zones := numLeafZones
	idx := leafZone
	for zones > 1 {
		indices = append(indices, idx%b)
		idx /= b
		zones = (zones + b - 1) / b
	}
	if len(indices) == 0 {
		indices = []int{0}
	}
	// indices is leaf-first; render root-first.
	path := ""
	for j := len(indices) - 1; j >= 0; j-- {
		path += fmt.Sprintf("/z%02d", indices[j])
	}
	return path
}

// NewCluster builds, bootstraps and returns a simulated cluster. Nodes
// are created with addresses "n0".."n<N-1>" and names "node-<i>".
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("core: cluster needs at least one node")
	}
	if cfg.Branching <= 0 {
		cfg.Branching = 64
	}
	if cfg.Branching < 2 {
		cfg.Branching = 2 // ZonePathFor's own floor; keep zone math aligned
	}
	if cfg.Link == (sim.LinkModel{}) {
		cfg.Link = sim.DefaultWAN
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = astrolabe.DefaultGossipInterval
	}
	eng := sim.NewEngine(cfg.Seed)
	net := sim.NewNetwork(eng, cfg.Link)
	c := &Cluster{Eng: eng, Net: net, cfg: cfg}
	if cfg.Workers != 0 {
		c.exec = sim.NewExecutor(net, cfg.Workers)
	}
	if cfg.Trace {
		c.tracer = trace.NewCollector(cfg.N)
	}

	var subsVal, loadVal, virtVal value.Value
	if cfg.virtualLeaves() {
		subsVal = virtualSubsBloom(cfg.VirtualSubjects)
		loadVal = value.Float(1)
		virtVal = value.Bool(true)
		c.vzoneByPath = make(map[string]*virtualZone)
	}
	issued := eng.Now()
	for i := 0; i < cfg.N; i++ {
		if cfg.virtualLeaves() && i%cfg.Branching >= materializedPerZone {
			// Quiescent member: a template row and a sink endpoint, no
			// agent (virtual.go). The zone's first materializedPerZone
			// members took the real-node path below, so the first
			// virtual member creates the zone's packed state.
			zone := ZonePathFor(i, cfg.N, cfg.Branching)
			vz := c.vzoneByPath[zone]
			if vz == nil {
				ordinal := i / cfg.Branching
				first := ordinal * cfg.Branching
				size := cfg.Branching
				if first+size > cfg.N {
					size = cfg.N - first
				}
				vz = newVirtualZone(zone, first, size, cfg.VirtualSubjects, issued)
				if c.exec != nil {
					// One sink owner per zone serializes the zone's
					// virtual delivery events and buffers their acks,
					// exactly like a real node's owner.
					vz.owner = c.exec.RegisterSink()
					c.ownerNode = append(c.ownerNode, -1)
				}
				c.vzoneByPath[zone] = vz
				c.vzones = append(c.vzones, vz)
			}
			pos := i - vz.firstIdx
			addr := fmt.Sprintf("n%d", i)
			var handle func(*wire.Message)
			ep := net.Attach(addr, func(m *wire.Message) { handle(m) })
			handle = vz.handler(pos, ep)
			if c.exec != nil {
				c.exec.Adopt(ep, vz.owner)
			}
			vz.template(pos, fmt.Sprintf("node-%d", i), addr, subsVal, loadVal, virtVal)
			c.Nodes = append(c.Nodes, nil)
			continue
		}
		n, err := c.buildNode(i)
		if err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, n)
		if cfg.virtualLeaves() {
			if err := n.Subscribe(cfg.VirtualSubjects...); err != nil {
				return nil, fmt.Errorf("core: node %d: %w", i, err)
			}
		}
	}
	c.bootstrap()
	return c, nil
}

// buildNode assembles the real Node for member i: endpoint, config,
// executor registration, tracing. Shared by the construction loop and
// MaterializeNode so a late-built node is wired identically.
func (c *Cluster) buildNode(i int) (*Node, error) {
	cfg := c.cfg
	addr := fmt.Sprintf("n%d", i)
	var node *Node
	ep := c.Net.Attach(addr, func(m *wire.Message) {
		node.HandleMessage(m)
	})
	nodeCfg := Config{
		Name:           fmt.Sprintf("node-%d", i),
		ZonePath:       ZonePathFor(i, cfg.N, cfg.Branching),
		Transport:      ep,
		Clock:          c.Eng.Clock(),
		Rand:           rand.New(rand.NewSource(cfg.Seed + int64(i)*7919 + 1)),
		GossipInterval: cfg.GossipInterval,
		// Retransmit deadlines run on the event engine so reliable
		// forwarding (Config.AckTimeout) stays deterministic.
		After: c.Eng.After,
	}
	if c.exec != nil {
		// Parallel mode: the node reads time through its owned clock
		// and registers timers through the executor, so its events
		// can run inside parallel windows yet commit in serial order.
		nodeCfg.Clock = c.exec.Register(ep)
		nodeCfg.After = c.exec.AfterFunc(ep)
		c.ownerNode = append(c.ownerNode, i)
	}
	if c.tracer != nil {
		// Per-node buffer: one writer at a time under both executors
		// (a node's events never run on two workers at once), and the
		// span timestamps come from nodeCfg.Clock — virtual time, or
		// the owned clock's event time inside parallel windows.
		nodeCfg.Tracer = c.tracer.Node(i)
	}
	if cfg.Customize != nil {
		cfg.Customize(i, &nodeCfg)
	}
	if cfg.virtualLeaves() && nodeCfg.Mode != 0 && nodeCfg.Mode != pubsub.ModeBloom {
		// Template rows advertise a raw Bloom subs filter (virtual.go),
		// which only ModeBloom's forwarding test reads.
		return nil, fmt.Errorf("core: node %d: virtual leaves (ClusterConfig.VirtualSubjects) require Config.Mode bloom, Customize set %s",
			i, nodeCfg.Mode)
	}
	n, err := NewNode(nodeCfg)
	if err != nil {
		return nil, fmt.Errorf("core: node %d: %w", i, err)
	}
	if c.exec != nil && nodeCfg.AckTimeout > 0 && nodeCfg.AckTimeout < c.exec.Lookahead() {
		// A retransmit deadline shorter than the conservative
		// lookahead window would fire inside an executed window and
		// break serial equivalence (sim/parallel.go).
		return nil, fmt.Errorf("core: node %d: AckTimeout %v below link lookahead %v; use Workers: 0",
			i, nodeCfg.AckTimeout, c.exec.Lookahead())
	}
	node = n
	return n, nil
}

// bootstrap introduces nodes to each other without O(N²) work: members of
// a leaf zone exchange leaf rows; at each higher level, one delegate per
// zone contributes its aggregate row to every node sharing that table.
func (c *Cluster) bootstrap() {
	// Group nodes by leaf zone. Iterate zones in sorted order everywhere
	// below: map order would make the first-seen dedup (and hence the
	// seeded tables) differ between runs with the same seed.
	byLeaf := make(map[string][]*Node)
	for _, n := range c.Nodes {
		if n == nil {
			continue // virtual leaf; its template row is merged below
		}
		byLeaf[n.ZonePath()] = append(byLeaf[n.ZonePath()], n)
	}
	leafZones := make([]string, 0, len(byLeaf))
	for z := range byLeaf {
		leafZones = append(leafZones, z)
	}
	sort.Strings(leafZones)
	// Leaf-level introductions: every real member learns its real
	// peers' own rows plus the zone's virtual templates.
	for _, z := range leafZones {
		members := byLeaf[z]
		rows := make([]wire.RowUpdate, 0, len(members))
		for _, m := range members {
			rows = append(rows, m.agent.OwnRowUpdate())
		}
		if vz := c.vzoneByPath[z]; vz != nil {
			rows = append(rows, vz.templateUpdates()...)
		}
		for _, m := range members {
			m.agent.MergeRows(rows)
		}
	}
	// Higher levels: collect one delegate's chain rows per leaf zone,
	// bucket them by table zone, and hand every node the rows of the
	// tables it replicates. Delegates of sibling leaf zones produce
	// same-named aggregate rows with identical (construction-time) issue
	// stamps but different partial contents; keep exactly one per
	// (zone, name) — these are bootstrap hints, and the first gossip
	// rounds replace them with converged aggregates. Without the dedup a
	// large cluster pays hundreds of millions of encoded tie-breaks.
	rowsByZone := make(map[string]map[string]wire.RowUpdate)
	for _, z := range leafZones {
		delegate := byLeaf[z][0]
		for _, u := range delegate.agent.ChainRowUpdates() {
			if u.Zone == delegate.ZonePath() {
				continue // leaf rows were handled above
			}
			byName := rowsByZone[u.Zone]
			if byName == nil {
				byName = make(map[string]wire.RowUpdate)
				rowsByZone[u.Zone] = byName
			}
			if _, seen := byName[u.Name]; !seen {
				byName[u.Name] = u
			}
		}
	}
	for _, n := range c.Nodes {
		if n == nil {
			continue
		}
		var seeds []wire.RowUpdate
		for _, zone := range n.agent.Chain() {
			byName := rowsByZone[zone]
			names := make([]string, 0, len(byName))
			for name := range byName {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				seeds = append(seeds, byName[name])
			}
		}
		n.agent.MergeRows(seeds)
	}
}

// StartTicking schedules every node's Tick on the engine with ±25%
// jitter, as a live deployment would behave.
func (c *Cluster) StartTicking() {
	for _, n := range c.Nodes {
		if n == nil {
			continue
		}
		n := n
		t := c.Eng.Every(c.cfg.GossipInterval, 0.25, n.Tick)
		c.tickers = append(c.tickers, t)
	}
}

// StopTicking cancels the tickers started by StartTicking.
func (c *Cluster) StopTicking() {
	for _, t := range c.tickers {
		t.Stop()
	}
	c.tickers = nil
}

// RunRounds ticks every node once per gossip interval for r rounds,
// advancing virtual time between rounds. Use either this or StartTicking,
// not both. Under the parallel executor the tick phase fans out across
// the worker pool and commits each node's sends in node-index order —
// the exact order of the serial loop.
func (c *Cluster) RunRounds(r int) {
	for i := 0; i < r; i++ {
		if c.exec != nil {
			c.exec.RunOwnersOrdered(c.tickOrderSlice(), func(k int) {
				ni := c.ownerNode[k]
				if ni < 0 {
					return // virtual-zone sink owner: nothing to tick
				}
				n := c.Nodes[ni]
				if !c.Net.Crashed(n.Addr()) {
					n.Tick()
				}
			})
		} else {
			for _, n := range c.Nodes {
				if n == nil {
					continue
				}
				if !c.Net.Crashed(n.Addr()) {
					n.Tick()
				}
			}
		}
		c.RunFor(c.cfg.GossipInterval)
		// Seal the row arena between table generations so slabs holding
		// mostly-expired encodings are released (wire/slab.go). Counter
		// driven, so it is identical across serial and parallel runs.
		c.rounds++
		if c.rounds%32 == 0 {
			wire.RowArena().SealEpoch()
		}
	}
}

// tickOrderSlice returns the owner slots sorted by the node index they
// drive (sink owners first — they buffer no tick effects), which is the
// serial tick loop's order. The sort is stable, so the order is a pure
// function of registration history and identical across runs.
func (c *Cluster) tickOrderSlice() []int {
	if len(c.tickOrder) != len(c.ownerNode) {
		c.tickOrder = c.tickOrder[:0]
		for k := range c.ownerNode {
			c.tickOrder = append(c.tickOrder, k)
		}
		sort.SliceStable(c.tickOrder, func(a, b int) bool {
			return c.ownerNode[c.tickOrder[a]] < c.ownerNode[c.tickOrder[b]]
		})
	}
	return c.tickOrder
}

// RunFor advances virtual time (delivering messages and firing tickers).
func (c *Cluster) RunFor(d time.Duration) {
	if c.exec != nil {
		c.exec.RunFor(d)
		return
	}
	c.Eng.RunFor(d)
}

// NodesInZone returns the nodes whose leaf zone lies under zone.
func (c *Cluster) NodesInZone(zone string) []*Node {
	var out []*Node
	for _, n := range c.Nodes {
		if n == nil {
			continue
		}
		if astrolabe.ZoneContains(zone, n.ZonePath()) {
			out = append(out, n)
		}
	}
	return out
}
