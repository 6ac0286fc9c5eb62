package newswire_test

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newswire"
	"newswire/internal/astrolabe"
	"newswire/internal/news"
	"newswire/internal/value"
	"newswire/internal/wire"
)

// TestPublicAPISimulatedCluster exercises the README quick-start path
// through the public facade only.
func TestPublicAPISimulatedCluster(t *testing.T) {
	var delivered atomic.Int64
	cluster, err := newswire.NewCluster(newswire.ClusterConfig{
		N:         16,
		Branching: 4,
		Seed:      99,
		Link:      newswire.DefaultWAN,
		Customize: func(i int, cfg *newswire.Config) {
			cfg.RepCount = 2
			// Reliable forwarding (see README "Delivery guarantees"):
			// over the 1%-loss WAN model, all-16 delivery within the
			// run window is a coin flip without ack/retry — any change
			// to the simulation's event order re-rolls which copies the
			// loss model eats.
			cfg.AckTimeout = time.Second
			cfg.OnItem = func(it *newswire.Item, env *newswire.ItemEnvelope) {
				delivered.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range cluster.Nodes {
		if err := n.Subscribe("tech/linux"); err != nil {
			t.Fatal(err)
		}
	}
	cluster.RunRounds(8)

	item := &newswire.Item{
		Publisher: "slashdot", ID: "api-test",
		Headline: "public API works", Body: "body",
		Subjects:  []string{"tech/linux"},
		Published: cluster.Eng.Now(),
	}
	if err := cluster.Nodes[0].PublishItem(item, newswire.RootZone, ""); err != nil {
		t.Fatal(err)
	}
	cluster.RunFor(10 * time.Second)

	if got := delivered.Load(); got != 16 {
		t.Fatalf("delivered to %d of 16 nodes", got)
	}
}

// TestLiveClusterOverTCP runs three real nodes over loopback TCP: two
// subscribers and a publisher joining through a seed peer.
func TestLiveClusterOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP test")
	}
	var got1, got2 atomic.Int64
	mk := func(name string, peers []string, counter *atomic.Int64) *newswire.LiveNode {
		t.Helper()
		cfg := newswire.LiveConfig{
			Node: newswire.Config{
				Name:           name,
				ZonePath:       "/live",
				GossipInterval: 200 * time.Millisecond,
			},
			Peers: peers,
		}
		if counter != nil {
			cfg.Node.OnItem = func(*news.Item, *wire.ItemEnvelope) { counter.Add(1) }
		}
		ln, err := newswire.StartLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return ln
	}

	seed := mk("seed", nil, &got1)
	if err := seed.Node().Subscribe("tech/linux"); err != nil {
		t.Fatal(err)
	}
	second := mk("second", []string{seed.Addr()}, &got2)
	if err := second.Node().Subscribe("tech/linux"); err != nil {
		t.Fatal(err)
	}
	publisher := mk("pub", []string{seed.Addr()}, nil)

	// Wait for membership to converge: both subscribers visible in the
	// publisher's leaf table.
	deadline := time.Now().Add(10 * time.Second)
	for {
		rows, _ := publisher.Node().Agent().Table("/live")
		if len(rows) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("membership never converged: %d rows", len(rows))
		}
		time.Sleep(50 * time.Millisecond)
	}
	// And for the subscription filters to aggregate.
	time.Sleep(time.Second)

	item := &newswire.Item{
		Publisher: "slashdot", ID: "live-1",
		Headline: "over real sockets", Body: "body",
		Subjects:  []string{"tech/linux"},
		Published: time.Now(),
	}
	if err := publisher.Node().PublishItem(item, "", ""); err != nil {
		t.Fatal(err)
	}

	deadline = time.Now().Add(10 * time.Second)
	for got1.Load() < 1 || got2.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("live delivery incomplete: seed=%d second=%d", got1.Load(), got2.Load())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestLiveAckedFanOutOverTCP runs reliable forwarding on four live nodes
// in two zones over loopback TCP: acked forwards share one encoded frame
// per fan-out, acks arrive on transport goroutines and deadlines fire on
// timer goroutines. Every subscriber must deliver each item exactly once,
// every retransmit table must drain, and loopback must need no retry.
func TestLiveAckedFanOutOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP test")
	}
	const items = 5
	var mu sync.Mutex
	got := map[string]map[string]int{} // node -> item ID -> deliveries
	var nodes []*newswire.LiveNode
	mk := func(name, zone string, peers []string, subscribe bool) *newswire.LiveNode {
		t.Helper()
		cfg := newswire.LiveConfig{
			Node: newswire.Config{
				Name:           name,
				ZonePath:       zone,
				GossipInterval: 100 * time.Millisecond,
				AckTimeout:     time.Second,
			},
			Peers: peers,
		}
		if subscribe {
			got[name] = map[string]int{}
			cfg.Node.OnItem = func(it *news.Item, _ *wire.ItemEnvelope) {
				mu.Lock()
				got[name][it.ID]++
				mu.Unlock()
			}
		}
		ln, err := newswire.StartLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		if subscribe {
			if err := ln.Node().Subscribe("tech/linux"); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, ln)
		return ln
	}
	pub := mk("pub", "/east", nil, false)
	mk("east-sub", "/east", []string{pub.Addr()}, true)
	west := mk("west-1", "/west", []string{pub.Addr()}, true)
	mk("west-2", "/west", []string{west.Addr()}, true)

	// Wait until every node sees both zones and its whole leaf zone, then
	// give the subscription summaries a few rounds to aggregate.
	deadline := time.Now().Add(15 * time.Second)
	for _, ln := range nodes {
		for {
			root, _ := ln.Node().Agent().Table("/")
			leaf, _ := ln.Node().Agent().Table(ln.Node().Agent().ZonePath())
			if len(root) == 2 && len(leaf) == 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("membership never converged at %s: %d zones, %d leaf rows",
					ln.Node().Agent().Name(), len(root), len(leaf))
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	time.Sleep(time.Second)

	for i := 0; i < items; i++ {
		item := &newswire.Item{
			Publisher: "slashdot", ID: fmt.Sprintf("acked-%d", i),
			Headline: "acked over real sockets", Body: "body",
			Subjects:  []string{"tech/linux"},
			Published: time.Now(),
		}
		if err := pub.Node().PublishItem(item, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	complete := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, ids := range got {
			if len(ids) < items {
				return false
			}
		}
		return true
	}
	drained := func() bool {
		for _, ln := range nodes {
			if ln.Node().Router().PendingAcks() != 0 {
				return false
			}
		}
		return true
	}
	deadline = time.Now().Add(10 * time.Second)
	for !complete() || !drained() {
		if time.Now().After(deadline) {
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("deliveries %v, tables drained %v", got, drained())
		}
		time.Sleep(20 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for name, ids := range got {
		for id, n := range ids {
			if n != 1 {
				t.Errorf("%s delivered %s %d times, want once", name, id, n)
			}
		}
	}
	// Each item is three acked destinations: the east subscriber's
	// deliver-copy, the west representative, and its deliver-copy to the
	// other west member.
	var acks int64
	for _, ln := range nodes {
		st := ln.Node().Router().Stats()
		if st.RetriesSent != 0 {
			t.Errorf("%s retried %d forwards on loopback", ln.Node().Agent().Name(), st.RetriesSent)
		}
		acks += st.AcksReceived
	}
	if acks != 3*items {
		t.Errorf("routers received %d acks, want %d", acks, 3*items)
	}
}

// TestLiveNodeSharesRandAcrossGoroutines publishes through three live nodes
// in two zones while gossip ticks every few milliseconds: representative
// choice on the publishing goroutines and partner choice on the tickers
// draw from the one Config.Rand of each node. Under -race this fails if
// StartLive hands the node an unguarded source.
func TestLiveNodeSharesRandAcrossGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP test")
	}
	var crossed [3]atomic.Int64 // per node, deliveries of items published in the other zone
	var nodes []*newswire.LiveNode
	for i, zone := range []string{"/a", "/a", "/b"} {
		cfg := newswire.LiveConfig{Node: newswire.Config{
			Name:           fmt.Sprintf("n%d", i),
			ZonePath:       zone,
			GossipInterval: 5 * time.Millisecond,
			Rand:           rand.New(rand.NewSource(int64(i + 1))),
			OnItem: func(it *news.Item, _ *wire.ItemEnvelope) {
				if it.Publisher != zone[1:] {
					crossed[i].Add(1)
				}
			},
		}}
		for _, n := range nodes {
			cfg.Peers = append(cfg.Peers, n.Addr())
		}
		ln, err := newswire.StartLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		if err := ln.Node().Subscribe("tech/linux"); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, ln)
	}
	// Publish from every node, four goroutines each, until items have
	// crossed between the zones in both directions, which takes a few gossip
	// rounds to set up; /b's node then picks among /a's two representatives
	// per item. 200 rounds showed the race on most runs before the fix.
	deadline := time.Now().Add(10 * time.Second)
	for round := 0; round < 200 || crossed[0].Load() < 20 || crossed[1].Load() < 20 || crossed[2].Load() < 20; round++ {
		if time.Now().After(deadline) {
			t.Fatalf("cross-zone deliveries after %d rounds: %d %d %d", round,
				crossed[0].Load(), crossed[1].Load(), crossed[2].Load())
		}
		var wg sync.WaitGroup
		for g := 0; g < 4*len(nodes); g++ {
			wg.Add(1)
			go func(g int, ln *newswire.LiveNode) {
				defer wg.Done()
				err := ln.Node().PublishItem(&newswire.Item{
					Publisher: ln.Node().Agent().ZonePath()[1:], ID: fmt.Sprintf("g%d-r%d", g, round),
					Headline: "h", Body: "b", Subjects: []string{"tech/linux"},
					Published: time.Now(),
				}, "", "")
				if err != nil {
					t.Error(err)
				}
			}(g, nodes[g%len(nodes)])
		}
		wg.Wait()
	}
}

// TestStartLiveWhilePeersSend restarts a node on an address its peers
// already know: they stream frames at the listener while StartLive is
// still building the node behind it. Under -race this fails if the
// transport's handler reads the node without synchronization.
func TestStartLiveWhilePeersSend(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP test")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	// An ack for a forward the node never sent: valid, handled, ignored.
	f, err := wire.NewFrame(&wire.Message{
		Kind:         wire.KindMulticastAck,
		MulticastAck: &wire.MulticastAck{Seq: 1, Key: "p/x#0", TargetZone: "/live"},
	}, "127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var peers sync.WaitGroup
	for i := 0; i < 4; i++ {
		peers.Add(1)
		go func() {
			defer peers.Done()
			for {
				if c, err := net.Dial("tcp", addr); err == nil {
					for err == nil {
						select {
						case <-stop:
							c.Close()
							return
						default:
							_, err = c.Write(f.Bytes())
						}
					}
					c.Close()
				}
				select {
				case <-stop:
					return
				case <-time.After(50 * time.Microsecond): // not listening yet
				}
			}
		}()
	}

	ln, err := newswire.StartLive(newswire.LiveConfig{
		ListenAddr: addr,
		Node:       newswire.Config{Name: "restarted", ZonePath: "/live"},
	})
	if err != nil {
		close(stop)
		peers.Wait()
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for ln.Transport().TransportStats().FramesReceived < 1000 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	peers.Wait()
	if got := ln.Transport().TransportStats().FramesReceived; got < 1000 {
		t.Errorf("received %d frames, want 1000", got)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicClusterRuns verifies the simulation's headline
// property: the same seed reproduces the same run exactly.
func TestDeterministicClusterRuns(t *testing.T) {
	run := func() string {
		var log string
		var cluster *newswire.Cluster
		c, err := newswire.NewCluster(newswire.ClusterConfig{
			N: 12, Branching: 4, Seed: 4242,
			Customize: func(i int, cfg *newswire.Config) {
				node := i
				cfg.OnItem = func(it *newswire.Item, env *newswire.ItemEnvelope) {
					log += fmt.Sprintf("%d:%s@%s;", node, it.ID,
						cluster.Eng.Now().Format("15:04:05.000"))
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		cluster = c
		for _, n := range cluster.Nodes {
			n.Subscribe("tech/linux")
		}
		cluster.RunRounds(8)
		it := &newswire.Item{
			Publisher: "p", ID: "det", Headline: "h", Body: "b",
			Subjects: []string{"tech/linux"}, Published: cluster.Eng.Now(),
		}
		cluster.Nodes[0].PublishItem(it, "", "")
		cluster.RunFor(10 * time.Second)
		sent, deliveredCt, dropped := cluster.Net.Totals()
		return fmt.Sprintf("%s|%d/%d/%d", log, sent, deliveredCt, dropped)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestFacadeConstructors exercises the thin wrappers the facade adds over
// internal/core.
func TestFacadeConstructors(t *testing.T) {
	realm, err := newswire.NewRealm(newswire.RealClock, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if realm.Store == nil {
		t.Fatal("realm has no certificate store")
	}
	// NewNode surfaces config errors.
	if _, err := newswire.NewNode(newswire.Config{}); err == nil {
		t.Fatal("empty node config accepted")
	}
}

func TestStartLiveErrors(t *testing.T) {
	// A bad listen address fails fast.
	if _, err := newswire.StartLive(newswire.LiveConfig{
		ListenAddr: "999.999.999.999:0",
	}); err == nil {
		t.Fatal("bad listen address accepted")
	}
	// A bad zone path fails after the listener opens (and closes it).
	if _, err := newswire.StartLive(newswire.LiveConfig{
		Node: newswire.Config{ZonePath: "not-a-zone"},
	}); err == nil {
		t.Fatal("bad zone path accepted")
	}
}

// TestStartLiveTracerDefault covers the live node's two recorder
// choices: with no Node.Tracer a bounded ring records the node's spans
// and TraceRing serves it; a Node.Tracer replaces that ring, receives
// the spans itself, and TraceRing is nil.
func TestStartLiveTracerDefault(t *testing.T) {
	publish := func(t *testing.T, ln *newswire.LiveNode) {
		t.Helper()
		if err := ln.Node().PublishItem(&newswire.Item{
			Publisher: "reuters", ID: "traced", Headline: "h", Body: "b",
			Subjects: []string{"tech/linux"}, Published: time.Now(),
		}, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("default ring", func(t *testing.T) {
		ln, err := newswire.StartLive(newswire.LiveConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		ring := ln.TraceRing()
		if ring == nil {
			t.Fatal("no default trace ring")
		}
		publish(t, ln)
		if ring.Recorded() == 0 {
			t.Fatal("the default ring recorded no spans")
		}
	})
	t.Run("custom recorder", func(t *testing.T) {
		custom := newswire.NewTraceRing(64)
		ln, err := newswire.StartLive(newswire.LiveConfig{Node: newswire.Config{Tracer: custom}})
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		if ln.TraceRing() != nil {
			t.Fatal("TraceRing is set although Node.Tracer replaced it")
		}
		publish(t, ln)
		if custom.Recorded() == 0 {
			t.Fatal("the custom recorder received no spans")
		}
	})
}

func TestStartLiveDefaults(t *testing.T) {
	ln, err := newswire.StartLive(newswire.LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if ln.Node().ZonePath() != "/default" {
		t.Fatalf("default zone = %q", ln.Node().ZonePath())
	}
	if ln.Node().Name() == "" {
		t.Fatal("no default name")
	}
	if ln.Addr() == "" {
		t.Fatal("no resolved address")
	}
}

// TestStartLiveHealthOff: a negative Node.HealthEvery turns a live node's
// self-monitoring plane off. Its row never carries a health digest, and no
// health rule is installed, so even a hand-set sys$health$ attribute is not
// aggregated into its zone's row. HealthEvery 1 is the control.
func TestStartLiveHealthOff(t *testing.T) {
	const interval = 10 * time.Millisecond
	probe := astrolabe.HealthSumPrefix + "probe"
	start := func(t *testing.T, every int) *astrolabe.Agent {
		t.Helper()
		ln, err := newswire.StartLive(newswire.LiveConfig{Node: newswire.Config{
			ZonePath: "/z", GossipInterval: interval, HealthEvery: every,
		}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		a := ln.Node().Agent()
		a.SetAttr(probe, value.Int(1))
		return a
	}
	aggregated := func(a *astrolabe.Agent) bool {
		rows, _ := a.Table(astrolabe.RootZone)
		for _, r := range rows {
			if r.Attrs[probe].IsValid() {
				return true
			}
		}
		return false
	}
	digest := func(a *astrolabe.Agent) []string {
		row, ok := a.Row(a.ZonePath(), a.Name())
		if !ok {
			t.Fatal("no own row")
		}
		var names []string
		for name := range row.Attrs {
			if strings.HasPrefix(name, astrolabe.HealthPrefix) && name != probe {
				names = append(names, name)
			}
		}
		return names
	}
	t.Run("control", func(t *testing.T) {
		a := start(t, 1)
		if !aggregated(a) {
			t.Fatal("the health rules did not aggregate a sys$health$ attribute")
		}
		for deadline := time.Now().Add(5 * time.Second); len(digest(a)) == 0; time.Sleep(interval) {
			if time.Now().After(deadline) {
				t.Fatal("no health digest published")
			}
		}
	})
	t.Run("off", func(t *testing.T) {
		a := start(t, -1)
		if aggregated(a) {
			t.Fatal("health rules are installed")
		}
		time.Sleep(20 * interval)
		if names := digest(a); len(names) > 0 {
			t.Fatalf("health digest published: %v", names)
		}
	})
}
