// Benchmarks: one Benchmark<ID>... target per experiment in DESIGN.md's
// index (E1–E8, A1–A4) — each regenerates its table at quick scale — plus
// micro-benchmarks of the hot paths (gossip merge, aggregation, Bloom
// tests, routing, caching).
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Full-size tables come from cmd/newswire-bench.
package newswire_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"newswire"
	"newswire/internal/astrolabe"
	"newswire/internal/bloom"
	"newswire/internal/cache"
	"newswire/internal/experiments"
	"newswire/internal/news"
	"newswire/internal/pubsub"
	"newswire/internal/sqlagg"
	"newswire/internal/value"
	"newswire/internal/vtime"
	"newswire/internal/wire"
	"newswire/internal/workload"
)

// benchOpts returns distinct-seed quick options per iteration so repeated
// runs exercise different deterministic universes.
func benchOpts(i int) experiments.Options {
	return experiments.Options{Quick: true, Seed: int64(i + 1)}
}

func BenchmarkE1DeliveryLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunE1(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE2PullRedundancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunE2(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE3BloomAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunE3(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE4PublisherLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunE4(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE5Overload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunE5(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE6Robustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunE6(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE7Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunE7(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE8FilterScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunE8(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkA1QueueStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunA1(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkA2RepElection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunA2(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkA3ZoneScoping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunA3(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkA4GossipParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunA4(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- micro-benchmarks of the hot paths ---

func BenchmarkBloomAddTest(b *testing.B) {
	f := bloom.New(bloom.DefaultBits, bloom.DefaultHashes)
	subjects := news.StandardSubjects
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := subjects[i%len(subjects)]
		f.Add(s)
		if !f.Test(s) {
			b.Fatal("false negative")
		}
	}
}

func BenchmarkBloomMerge(b *testing.B) {
	x := bloom.New(bloom.DefaultBits, bloom.DefaultHashes)
	y := bloom.New(bloom.DefaultBits, bloom.DefaultHashes)
	for _, s := range news.StandardSubjects {
		y.Add(s)
	}
	snapshot := y.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.MergeBytes(snapshot); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregationEval(b *testing.B) {
	prog := sqlagg.MustParse(`SELECT
		SUM(COALESCE(nmembers, 1)) AS nmembers,
		REPS(3, load, COALESCE(reps, addr)) AS reps,
		MINV(load, addr) AS addr,
		MIN(load) AS load,
		BIT_OR(subs) AS subs`)
	rows := make([]value.Map, 64)
	blob := make([]byte, 128)
	for i := range rows {
		rows[i] = value.Map{
			"addr": value.String(fmt.Sprintf("n%d", i)),
			"load": value.Float(float64(i) / 64),
			"subs": value.Bytes(blob),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Eval(rows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValueMapCodec(b *testing.B) {
	m := value.Map{
		"addr": value.String("node-1:9000"),
		"load": value.Float(0.25),
		"subs": value.Bytes(make([]byte, 128)),
		"reps": value.Strings([]string{"a:1", "b:2", "c:3"}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := m.AppendBinary(nil)
		if _, _, err := value.DecodeMap(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForwardFilterBloom(b *testing.B) {
	geo := pubsub.DefaultGeometry
	filter := pubsub.ForwardFilter(pubsub.ModeBloom, geo, nil)
	f := bloom.New(geo.Bits, geo.Hashes)
	f.Add("tech/linux")
	row := astrolabe.Row{
		Name:  "child",
		Attrs: value.Map{astrolabe.AttrSubs: value.Bytes(f.Bytes())},
	}
	it := &news.Item{
		Publisher: "p", ID: "i", Headline: "h", Body: "b",
		Subjects: []string{"tech/linux"}, Published: time.Unix(0, 0),
	}
	env, err := pubsub.EncodeItem(it, pubsub.ModeBloom, geo, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !filter("/", row, &env) {
			b.Fatal("filter rejected subscribed item")
		}
	}
}

func BenchmarkCachePut(b *testing.B) {
	c, err := cache.New(cache.Config{Clock: vtime.NewVirtual()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(wire.ItemEnvelope{
			Publisher: "p", ItemID: fmt.Sprintf("i%d", i),
			Subjects: []string{"tech/linux"},
		})
	}
}

// benchArticle is a wire-service revision: about 1.8 KB of body ending in
// the "\n[updated]" every second article of the fan-out workload carries.
func benchArticle() *news.Item {
	return &news.Item{
		Publisher: "reuters", ID: "art-000042", Revision: 1,
		Headline: "reuters story 42 about world/asia", Byline: "By Staff Writer",
		Abstract: "Abstract of story 42.", Body: strings.Repeat("x", 1800) + "\n[updated]",
		Subjects: []string{"world/asia"}, Urgency: 4, Geography: "asia",
		Published: time.Unix(1017619200, 0).UTC(),
	}
}

func BenchmarkNITFMarshal(b *testing.B) {
	it := benchArticle()
	data, err := news.MarshalNITF(it)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := news.MarshalNITF(it); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNITFUnmarshal(b *testing.B) {
	data, err := news.MarshalNITF(benchArticle())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := news.UnmarshalNITF(data); err != nil {
			b.Fatal(err)
		}
	}
}

// liveBenchNodes and liveBenchMembers shape the live benchmarks' cluster:
// four leaf zones of four under two regions.
const liveBenchNodes, liveBenchMembers = 16, 4

// startLiveBench starts the live benchmarks' cluster on loopback TCP with
// 200 ms gossip and product defaults otherwise, every node subscribed to
// subject and, when secure, holding a member certificate of one realm (so
// every row is signed and verified). Each node is introduced to the first
// member of every zone started before it: gossip with one foreign zone
// never reveals a third.
func startLiveBench(b *testing.B, subject string, secure bool, onItem func(*news.Item, *wire.ItemEnvelope)) []*newswire.LiveNode {
	secs := make([]*newswire.Security, liveBenchNodes)
	if secure {
		// Every identity is minted before the first node starts: running
		// nodes read the realm's certificate store without a lock.
		realm, err := newswire.NewRealm(newswire.RealClock, 24*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		for i := range secs {
			if secs[i], err = realm.Member(fmt.Sprintf("n%02d", i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	cluster := make([]*newswire.LiveNode, liveBenchNodes)
	for i := range cluster {
		zone := i / liveBenchMembers
		cfg := newswire.LiveConfig{Node: newswire.Config{
			Name:           fmt.Sprintf("n%02d", i),
			ZonePath:       fmt.Sprintf("/r%d/z%d", zone/2, zone%2),
			GossipInterval: 200 * time.Millisecond,
			Rand:           rand.New(rand.NewSource(int64(i + 1))),
			OnItem:         onItem,
			Security:       secs[i],
		}}
		for first := 0; first < i; first += liveBenchMembers {
			cfg.Peers = append(cfg.Peers, cluster[first].Addr())
		}
		ln, err := newswire.StartLive(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ln.Close() })
		if err := ln.Node().Subscribe(subject); err != nil {
			b.Fatal(err)
		}
		cluster[i] = ln
	}
	return cluster
}

// BenchmarkLiveFanout is the delivery side of one item on real sockets: 16
// live nodes over loopback TCP, four leaf zones of four under two regions,
// every node subscribed to the subject of every wire-service article (some
// of them revisions). One op is one item published and delivered to all 16,
// so allocs/op is heap objects per item across the whole process, gossip
// included. It is the repository benchmark's fanout workload reduced to a
// `go test` name, and with -memprofile it regenerates the fan-out
// allocation ledger in EXPERIMENTS.md.
func BenchmarkLiveFanout(b *testing.B) {
	const nodes, members = liveBenchNodes, liveBenchMembers
	const subject = "bench/fanout"
	var delivered atomic.Int64
	allIn := make(chan struct{}, 1) // the item in flight reached every node
	cluster := startLiveBench(b, subject, false, func(*news.Item, *wire.ItemEnvelope) {
		if delivered.Add(1)%nodes == 0 {
			allIn <- struct{}{}
		}
	})
	profile := workload.WireServiceProfile("wire")
	profile.Subjects = []string{subject}
	gen, err := workload.NewArticleGen(profile, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	publish := func(it *news.Item) {
		if err := cluster[rand.Intn(members)*members].Node().PublishItem(it, "", ""); err != nil {
			b.Fatal(err)
		}
	}
	// Ready when a probe reaches all 16; until then probes reach fewer, and
	// the count is reset between tries.
	for try := 0; ; try++ {
		if try == 100 {
			b.Fatal("cluster never converged")
		}
		time.Sleep(gossipSettle)
		delivered.Store(0)
		publish(&news.Item{
			Publisher: "probe", ID: fmt.Sprintf("p%d", try), Headline: "h", Body: "b",
			Subjects: []string{subject}, Published: time.Now(),
		})
		time.Sleep(gossipSettle)
		if delivered.Load() == nodes {
			<-allIn
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		publish(gen.Next(time.Now()))
		select {
		case <-allIn:
		case <-time.After(10 * time.Second):
			b.Fatalf("item %d reached %d of %d nodes", i, delivered.Load()%nodes, nodes)
		}
	}
}

// gossipSettle is the pause around a readiness probe of BenchmarkLiveFanout.
const gossipSettle = 400 * time.Millisecond

// BenchmarkLiveGossip is the live control plane alone: BenchmarkLiveFanout's
// 16 nodes, idle once every node's root table counts all 16 members. One op
// is one second of steady gossip — digests, deltas, aggregation, the health
// plane — so allocs/op is the whole process's heap objects per second. The
// signed arm signs and verifies every row. With -memprofile (and
// -memprofilerate 1) it regenerates EXPERIMENTS.md's live control-plane
// ledger.
func BenchmarkLiveGossip(b *testing.B) {
	for _, arm := range []struct {
		name   string
		secure bool
	}{{"plain", false}, {"signed", true}} {
		b.Run(arm.name, func(b *testing.B) {
			cluster := startLiveBench(b, "bench/gossip", arm.secure, nil)
			for try := 0; !liveConverged(cluster); try++ {
				if try == 100 {
					b.Fatal("cluster never converged")
				}
				time.Sleep(gossipSettle)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				time.Sleep(time.Second)
			}
		})
	}
}

// liveConverged reports whether every node's root table counts every node.
func liveConverged(cluster []*newswire.LiveNode) bool {
	for _, ln := range cluster {
		rows, _ := ln.Node().Agent().Table(newswire.RootZone)
		var members int64
		for _, r := range rows {
			n, _ := r.Attrs[astrolabe.AttrMembers].AsInt()
			members += n
		}
		if members != int64(len(cluster)) {
			return false
		}
	}
	return true
}

// BenchmarkGossipRound measures one full gossip round of a 64-node
// cluster (ticks plus message drain) in the simulator on the paper's
// 64-row leaf-zone shape. The bytes/round metric is the steady-state
// network traffic the whole cluster generates per round.
func BenchmarkGossipRound(b *testing.B) {
	run := func(b *testing.B, traced bool, healthEvery int) {
		cluster, err := newswire.NewCluster(newswire.ClusterConfig{
			N: 64, Branching: 64, Seed: 1, Trace: traced,
			Customize: func(i int, cfg *newswire.Config) {
				cfg.HealthEvery = healthEvery
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range cluster.Nodes {
			if err := n.Subscribe("tech/linux"); err != nil {
				b.Fatal(err)
			}
		}
		cluster.RunRounds(5)
		startBytes, _ := cluster.Net.BytesTotals()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cluster.RunRounds(1)
		}
		b.StopTimer()
		endBytes, _ := cluster.Net.BytesTotals()
		b.ReportMetric(float64(endBytes-startBytes)/float64(b.N), "bytes/round")
	}
	b.Run("delta", func(b *testing.B) { run(b, false, 0) })
	// The traced arm attaches the span collector; gossip traffic emits no
	// spans, so any delta against the arm above is pure recorder overhead.
	b.Run("delta-traced", func(b *testing.B) { run(b, true, 0) })
	// The health arms fold sys$health$* telemetry digests into the MIB
	// every 2 ticks; their deltas over the arms above are the gossip-borne
	// cost of the self-monitoring plane (E12 gates them at <= 5%).
	b.Run("delta-health", func(b *testing.B) { run(b, false, 2) })
	b.Run("delta-health-traced", func(b *testing.B) { run(b, true, 2) })
}

// BenchmarkChurnRound is one gossip interval of the repository benchmark's
// sim_churn workload as a `go test` name: 1,024 simulated nodes in leaf
// zones of 16 with acked forwarding and item anti-entropy every third tick,
// every zone subscribed to two of sixteen subjects, and per round one node
// crashing, the victim of three rounds ago returning to ask its peers for
// what it missed, and four small items published. One op is 1,024
// node-rounds, nearly all of it control plane — heartbeats, digest/delta
// exchanges, aggregation, recovery-peer draws, the simulator's timers — so
// allocs/op ÷ 1,024 is what a node allocates per round, and with
// -memprofile (and -memprofilerate 1 for exact counts) it regenerates the
// control-plane allocation ledger in EXPERIMENTS.md. Beside bytes/round it
// reports where those bytes went (the network's per-kind ledger): item
// forwards, state transfer (requests and replies), gossip digests and
// gossip deltas — the rows of EXPERIMENTS.md's sim_churn byte ledger.
func BenchmarkChurnRound(b *testing.B) {
	c := newChurnCluster(b)
	defer c.StopTicking()
	ledger := []struct {
		unit  string
		kinds []wire.Kind
		start int64
	}{
		{unit: "multicast-KB/round", kinds: []wire.Kind{wire.KindMulticast}},
		{unit: "state-KB/round", kinds: []wire.Kind{wire.KindStateRequest, wire.KindStateReply}},
		{unit: "digest-KB/round", kinds: []wire.Kind{wire.KindGossipDigest}},
		{unit: "delta-KB/round", kinds: []wire.Kind{wire.KindGossipDelta}},
	}
	for i := range ledger {
		ledger[i].start = c.kindBytes(ledger[i].kinds...)
	}
	startBytes, _ := c.Net.BytesTotals()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.round(b, i)
	}
	b.StopTimer()
	endBytes, _ := c.Net.BytesTotals()
	b.ReportMetric(float64(endBytes-startBytes)/float64(b.N), "bytes/round")
	for _, row := range ledger {
		b.ReportMetric(float64(c.kindBytes(row.kinds...)-row.start)/1000/float64(b.N), row.unit)
	}
}

// churnCluster is BenchmarkChurnRound's cluster and churn state.
type churnCluster struct {
	*newswire.Cluster
	rng  *rand.Rand
	down []int // victims, oldest first
}

const (
	churnNodes, churnBranching, churnSubjects = 1024, 16, 16
	churnItemsPerRound, churnDownRounds       = 4, 3
	churnInterval                             = 2 * time.Second
)

func churnSubject(k int) string { return fmt.Sprintf("bench/c%02d", k%churnSubjects) }

// newChurnCluster boots the cluster for ten rounds and starts its tickers;
// the caller stops them.
func newChurnCluster(tb testing.TB) *churnCluster {
	cluster, err := newswire.NewCluster(newswire.ClusterConfig{
		N: churnNodes, Branching: churnBranching, Seed: 1, GossipInterval: churnInterval,
		Customize: func(i int, cfg *newswire.Config) {
			cfg.AckTimeout = time.Second
			cfg.AntiEntropyEvery = 3
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i, n := range cluster.Nodes {
		zone := i / churnBranching
		if err := n.Subscribe(churnSubject(zone), churnSubject(zone+1+zone/churnSubjects)); err != nil {
			tb.Fatal(err)
		}
	}
	cluster.RunRounds(10)
	cluster.StartTicking()
	return &churnCluster{Cluster: cluster, rng: rand.New(rand.NewSource(1))}
}

// round is the i-th gossip interval of the schedule: one crash, one return
// once three are down, four items.
func (c *churnCluster) round(tb testing.TB, i int) {
	v := 1 + c.rng.Intn(churnNodes-1) // node 0 publishes
	for c.Net.Crashed(c.Nodes[v].Addr()) {
		v = 1 + c.rng.Intn(churnNodes-1)
	}
	c.Net.Crash(c.Nodes[v].Addr())
	if c.down = append(c.down, v); len(c.down) > churnDownRounds {
		back := c.Nodes[c.down[0]]
		c.down = c.down[1:]
		c.Net.Restore(back.Addr())
		if err := back.RecoverFromZonePeer(64); err != nil {
			tb.Fatal(err)
		}
	}
	for k := 0; k < churnItemsPerRound; k++ {
		g := i*churnItemsPerRound + k
		it := &news.Item{
			Publisher: "bench", ID: fmt.Sprintf("it-%d", g), Headline: "h", Body: "b",
			Subjects: []string{churnSubject(g)}, Urgency: 5, Published: c.Eng.Now(),
		}
		if err := c.Nodes[0].PublishItem(it, "", ""); err != nil {
			tb.Fatal(err)
		}
		c.RunFor(churnInterval / churnItemsPerRound)
	}
}

// kindBytes sums the network's ledger over kinds.
func (c *churnCluster) kindBytes(kinds ...wire.Kind) (sum int64) {
	for _, k := range kinds {
		sum += c.Net.SentByKind(k).Bytes
	}
	return sum
}

// TestChurnGossipBytesBudget holds the gossip share of sim_churn's wire
// bytes to what zone sections brought it down to. It runs the first ten
// rounds of BenchmarkChurnRound's schedule — a fixed seed, so the count
// repeats to the byte — and fails if digests and deltas together cost over
// 2 % more per round than recorded. A protocol change that means to move
// these bytes records the new figure here with its reason, as for
// TestGossipGoldenBytes; per-row digests (through PR 23) cost 1,323,900.
func TestChurnGossipBytesBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 1,024 simulated nodes")
	}
	const rounds, recorded = 10, 465493 // digest + delta bytes per round
	c := newChurnCluster(t)
	defer c.StopTicking()
	start := c.kindBytes(wire.KindGossipDigest, wire.KindGossipDelta)
	for i := 0; i < rounds; i++ {
		c.round(t, i)
	}
	got := (c.kindBytes(wire.KindGossipDigest, wire.KindGossipDelta) - start) / rounds
	t.Logf("digest + delta: %d bytes/round (recorded %d)", got, recorded)
	if got > recorded+recorded/50 {
		t.Errorf("gossip digests and deltas cost %d bytes/round, over 2 %% above the recorded %d", got, recorded)
	}
}

// TestChurnRoundAllocationBudget holds what sim_churn's control plane
// allocates to what recycled simulator events brought it down to. It runs
// the first ten rounds of BenchmarkChurnRound's schedule and fails if the
// heap objects allocated per node-round exceed the recorded figure by more
// than 5 %. A change that allocates on purpose records the new figure here
// with its reason. While every message and every tick allocated an event
// and a closure it read 28.0; while every gossip message part was its own
// allocation, 15.4; while a received item was rebuilt at every hop, 5.5.
func TestChurnRoundAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 1,024 simulated nodes")
	}
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const rounds, recorded = 10, 4.7 // objects per node-round
	c := newChurnCluster(t)
	defer c.StopTicking()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		c.round(t, i)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / (rounds * churnNodes)
	t.Logf("%.2f objects per node-round (recorded %.1f)", got, recorded)
	if got > recorded*1.05 {
		t.Errorf("a node-round allocates %.2f objects, over 5 %% above the recorded %.1f", got, recorded)
	}
}

// TestLeafReceiveAllocationBudget holds what a leaf pays for one received
// item: a deliver-copy frame decoded, handed to the node, dedup-marked,
// matched and kept in the item table, with no OnItem reader. The decoded
// block and its envelope's span are the two objects; the key is a region
// of the key slab, and the item table keeps the envelope as it was
// decoded. The item table is first filled past both its lifetimes, so its
// maps and its eviction order are in their steady state.
func TestLeafReceiveAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const budget = 2
	node, err := newswire.NewNode(newswire.Config{
		Name: "leaf", ZonePath: "/z", Transport: sinkTransport{addr: "leaf:1", sent: new(int)}, Clock: newswire.RealClock,
		Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Subscribe("tech/linux"); err != nil {
		t.Fatal(err)
	}
	frame := func(i int) []byte {
		return itemFrame(t, i, &wire.Multicast{TargetZone: "/z", Hops: 2, Deliver: true})
	}
	receive := func(data []byte) {
		msg, err := wire.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		node.HandleMessage(msg)
	}
	const warm, runs = 9000, 200
	for i := 0; i < warm; i++ {
		receive(frame(i))
	}
	frames := make([][]byte, runs+1)
	for i := range frames {
		frames[i] = frame(warm + i)
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		receive(frames[next])
		next++
	})
	if delivered := node.Delivered(); delivered != warm+runs+1 {
		t.Fatalf("the leaf delivered %d of %d items", delivered, warm+runs+1)
	}
	t.Logf("%.0f objects per received item (budget %d)", got, budget)
	if got > budget {
		t.Errorf("a leaf's received item allocates %.0f objects, budget %d", got, budget)
	}
}

// itemFrame encodes item i, a 1.8 KB tech/linux article, as the forward
// mc sent by rep:1, with trace ID i.
func itemFrame(t *testing.T, i int, mc *wire.Multicast) []byte {
	t.Helper()
	env, err := pubsub.EncodeItem(&news.Item{
		Publisher: "wire", ID: fmt.Sprintf("it-%d", i), Headline: "h", Body: strings.Repeat("x", 1800),
		Subjects: []string{"tech/linux"}, Published: time.Now(),
	}, pubsub.ModeBloom, pubsub.DefaultGeometry, nil)
	if err != nil {
		t.Fatal(err)
	}
	mc.TraceID, mc.Envelope = uint64(i), env
	data, err := wire.Encode(&wire.Message{Kind: wire.KindMulticast, From: "rep:1", Multicast: mc})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRouteAllocationBudget holds what an interior representative pays to
// route a received item: a forward for the root zone, handed to the node
// of /a/x, is routed into the root's child zones (/b remote, /a its own),
// then /a's (/a/y remote, /a/x its own), then fanned out in its leaf (a
// deliver-copy to its sibling, and the item delivered and kept here). Each
// of the three fan-outs builds one forward, and only those may allocate:
// the three table reads, the three routed marks, the delivery and the
// item table's keep cost nothing amortized. The forwards are decoded
// beforehand, and the item table is first filled past both its lifetimes.
func TestRouteAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const fanOuts = 3 // the forwards per item: to /b, to /a/y, the deliver-copy in /a/x
	sent := 0
	var nodes []*newswire.Node
	for _, m := range []struct{ name, zone string }{{"rep", "/a/x"}, {"sib", "/a/x"}, {"y", "/a/y"}, {"z", "/b/z"}} {
		node, err := newswire.NewNode(newswire.Config{
			Name: m.name, ZonePath: m.zone, Transport: sinkTransport{addr: m.name + ":1", sent: &sent},
			Clock: newswire.RealClock, Rand: rand.New(rand.NewSource(1)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Subscribe("tech/linux"); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	for range 2 { // the second pass carries the aggregates the first one built
		for _, from := range nodes {
			rows := from.Agent().ChainRowUpdates()
			for _, to := range nodes {
				if to != from {
					to.Agent().MergeRows(rows)
				}
			}
		}
	}
	rep := nodes[0]
	forward := func(i int) *wire.Message {
		msg, err := wire.Decode(itemFrame(t, i, &wire.Multicast{TargetZone: newswire.RootZone, Hops: 1}))
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	const warm, runs = 9000, 200
	for i := 0; i < warm; i++ {
		rep.HandleMessage(forward(i))
	}
	if sent != warm*fanOuts || rep.Delivered() != warm {
		t.Fatalf("%d items made %d sends and %d deliveries; want %d forwards each and every item delivered",
			warm, sent, rep.Delivered(), fanOuts)
	}
	msgs := make([]*wire.Message, runs+1)
	for i := range msgs {
		msgs[i] = forward(warm + i)
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		rep.HandleMessage(msgs[next])
		next++
	})
	if sent != (warm+runs+1)*fanOuts {
		t.Fatalf("%d sends for %d items, want %d each", sent, warm+runs+1, fanOuts)
	}
	t.Logf("%.0f objects per routed item (budget %d, one per forward)", got, fanOuts)
	if got > fanOuts {
		t.Errorf("routing a received item allocates %.0f objects, budget %d: one per fan-out's forward", got, fanOuts)
	}
}

// sinkTransport counts the sends of the node at addr and swallows them.
type sinkTransport struct {
	addr string
	sent *int
}

func (t sinkTransport) Addr() string                     { return t.addr }
func (t sinkTransport) Send(string, *wire.Message) error { *t.sent++; return nil }
func (sinkTransport) Close() error                       { return nil }

// TestGossipRoundTraceOverheadGuard is the CI gate on the disabled-tracing
// hot path: a steady-state gossip round with a nil recorder must stay near
// the pre-observability baseline, and attaching a recorder must not change
// the gossip path's allocations at all — gossip emits no spans. Note the
// ceiling is calibrated to testing.AllocsPerRun, which reads well above
// the amortized -benchmem number for the same workload (~5.5k/round here
// vs the benchmark's ~0.8k delta allocs/op: shared-row caches warmed in
// early rounds amortize across a long benchmark but not across 3 runs).
// It was 9,339 while every re-stamp cloned its row and every digest diff
// built a set of the names it saw.
func TestGossipRoundTraceOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	measure := func(traced bool) float64 {
		cluster, err := newswire.NewCluster(newswire.ClusterConfig{
			N: 64, Branching: 64, Seed: 1, Trace: traced,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range cluster.Nodes {
			if err := n.Subscribe("tech/linux"); err != nil {
				t.Fatal(err)
			}
		}
		cluster.RunRounds(5)
		return testing.AllocsPerRun(3, func() { cluster.RunRounds(1) })
	}
	nilRec := measure(false)
	attached := measure(true)
	t.Logf("allocs/round: recorder nil %.0f, attached %.0f", nilRec, attached)
	const ceiling = 6000 // 5,457 measured via AllocsPerRun + 10% headroom
	if nilRec > ceiling {
		t.Errorf("nil-recorder gossip round allocates %.0f/op, above the %d baseline ceiling", nilRec, ceiling)
	}
	if attached > ceiling {
		t.Errorf("attached-recorder gossip round allocates %.0f/op, above the %d ceiling", attached, ceiling)
	}
	// The benchmark's delta vs delta-traced arms are alloc-identical; allow
	// only trivial jitter between the two harness runs here.
	if attached-nilRec > 500 {
		t.Errorf("attaching a recorder added %.0f allocs/round to the gossip path, want ~0", attached-nilRec)
	}
}

// BenchmarkGossipRound4096 measures one gossip round of a 4096-node
// cluster (the largest standard E1 point) under the serial engine and
// under the deterministic parallel executor with GOMAXPROCS workers.
// Both arms produce bit-identical simulations; the parallel arm's gain
// scales with available cores (a single-core host shows parity). Run
// with -benchmem: the alloc reduction between arms and across revisions
// is part of what this benchmark guards.
func BenchmarkGossipRound4096(b *testing.B) {
	run := func(b *testing.B, workers int) {
		cluster, err := newswire.NewCluster(newswire.ClusterConfig{
			N: 4096, Branching: 64, Seed: 1, Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range cluster.Nodes {
			if err := n.Subscribe("tech/linux"); err != nil {
				b.Fatal(err)
			}
		}
		cluster.RunRounds(2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cluster.RunRounds(1)
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 0) })
	b.Run("parallel", func(b *testing.B) { run(b, -1) })
}

// BenchmarkPublishDelivery measures one end-to-end publish through a
// warmed 64-node cluster.
func BenchmarkPublishDelivery(b *testing.B) {
	cluster, err := newswire.NewCluster(newswire.ClusterConfig{
		N: 64, Branching: 16, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range cluster.Nodes {
		if err := n.Subscribe("tech/linux"); err != nil {
			b.Fatal(err)
		}
	}
	cluster.RunRounds(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := &news.Item{
			Publisher: "bench", ID: fmt.Sprintf("b%d", i),
			Headline: "x", Body: "y",
			Subjects:  []string{"tech/linux"},
			Published: cluster.Eng.Now(),
		}
		if err := cluster.Nodes[0].PublishItem(it, "", ""); err != nil {
			b.Fatal(err)
		}
		cluster.RunFor(2 * time.Second)
	}
}
