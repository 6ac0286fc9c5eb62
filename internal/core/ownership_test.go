package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newswire/internal/news"
	"newswire/internal/transport"
	"newswire/internal/vtime"
	"newswire/internal/wire"
)

// keptLedger records every envelope a node's item table keeps, as OnItem
// is handed it, and holds them all to the copy of their item first kept
// anywhere: the same fields and the same bytes on the wire, at first sight
// and for as long as the test runs (DESIGN.md §8, "Envelope ownership").
type keptLedger struct {
	mu    sync.Mutex
	first map[string]keptSnapshot
	kept  []keptEnvelope
}

type keptEnvelope struct {
	node string
	env  *wire.ItemEnvelope
}

// keptSnapshot is a deep copy of an envelope's fields and its sealed key,
// and the bytes a frame carrying it sends.
type keptSnapshot struct {
	fields wire.ItemEnvelope
	key    string
	bytes  []byte
}

func newKeptLedger() *keptLedger { return &keptLedger{first: make(map[string]keptSnapshot)} }

func snapshotEnvelope(t *testing.T, env *wire.ItemEnvelope) keptSnapshot {
	// A reply frame of one envelope: the encoder sends a sealed envelope's
	// kept span, as a relayed forward does.
	data, err := wire.Encode(&wire.Message{Kind: wire.KindStateReply, From: "x",
		StateReply: &wire.StateReply{Envelopes: []wire.ItemEnvelope{*env}}})
	if err != nil {
		t.Fatal(err)
	}
	s := keptSnapshot{bytes: data, key: strings.Clone(env.Key())}
	s.fields = wire.ItemEnvelope{
		Publisher: strings.Clone(env.Publisher), ItemID: strings.Clone(env.ItemID),
		Revision: env.Revision, SubjectBits: slices.Clone(env.SubjectBits),
		ScopeZone: strings.Clone(env.ScopeZone), Predicate: strings.Clone(env.Predicate),
		Urgency: env.Urgency, Published: env.Published, Payload: bytes.Clone(env.Payload),
		Signer: strings.Clone(env.Signer), Sig: bytes.Clone(env.Sig),
	}
	for _, s2 := range env.Subjects {
		s.fields.Subjects = append(s.fields.Subjects, strings.Clone(s2))
	}
	return s
}

// diffEnvelope names the first field in which a and b differ, or "".
func diffEnvelope(a, b *wire.ItemEnvelope) string {
	switch {
	case a.Publisher != b.Publisher || a.ItemID != b.ItemID || a.Revision != b.Revision || a.Key() != b.Key():
		return "identity"
	case !slices.Equal(a.Subjects, b.Subjects):
		return "Subjects"
	case !slices.Equal(a.SubjectBits, b.SubjectBits):
		return "SubjectBits"
	case a.ScopeZone != b.ScopeZone:
		return "ScopeZone"
	case a.Predicate != b.Predicate:
		return "Predicate"
	case a.Urgency != b.Urgency:
		return "Urgency"
	case !a.Published.Equal(b.Published):
		return "Published"
	case !bytes.Equal(a.Payload, b.Payload):
		return "Payload"
	case a.Signer != b.Signer || !bytes.Equal(a.Sig, b.Sig):
		return "signature"
	}
	return ""
}

// check compares env with its item's first snapshot, which it becomes
// when there is none; the frame bytes must also decode to env's fields,
// and its sealed key must be the one its fields name.
func (l *keptLedger) check(t *testing.T, node string, env *wire.ItemEnvelope, when string) {
	t.Helper()
	now := snapshotEnvelope(t, env)
	if want := now.fields.Key(); now.key != want {
		t.Errorf("%s: %s's copy of %s has the key %q", when, node, want, now.key)
	}
	msg, err := wire.Decode(now.bytes)
	if err != nil {
		t.Errorf("%s: %s's copy of %s does not decode: %v", when, node, now.key, err)
		return
	}
	if d := diffEnvelope(&msg.StateReply.Envelopes[0], &now.fields); d != "" {
		t.Errorf("%s: %s's copy of %s sends bytes whose %s differs from its fields", when, node, now.key, d)
	}
	l.mu.Lock()
	first, seen := l.first[now.fields.Key()]
	if !seen {
		l.first[now.fields.Key()] = now
	}
	l.mu.Unlock()
	if !seen {
		return
	}
	if d := diffEnvelope(&now.fields, &first.fields); d != "" {
		t.Errorf("%s: %s's copy of %s changed its %s", when, node, first.key, d)
	}
	if now.key != first.key {
		t.Errorf("%s: %s's copy of %s changed its key to %q", when, node, first.key, now.key)
	}
	if !bytes.Equal(now.bytes, first.bytes) {
		t.Errorf("%s: %s's copy of %s changed its bytes", when, node, first.key)
	}
}

// onItem is an OnItem that records what node's item table kept.
func (l *keptLedger) onItem(t *testing.T, node string) ItemHandler {
	return func(_ *news.Item, env *wire.ItemEnvelope) {
		l.check(t, node, env, "at first sight")
		l.mu.Lock()
		l.kept = append(l.kept, keptEnvelope{node, env})
		l.mu.Unlock()
	}
}

// recheck holds every envelope kept so far to its first snapshot again.
func (l *keptLedger) recheck(t *testing.T) int {
	t.Helper()
	l.mu.Lock()
	kept := slices.Clone(l.kept)
	l.mu.Unlock()
	for _, k := range kept {
		l.check(t, k.node, k.env, "later")
	}
	return len(kept)
}

// ownershipItem is item i of publisher pub: an odd i is the second
// revision of item i-1, which fuses the first away, and adds a subject.
func ownershipItem(pub string, i int) *news.Item {
	subjects := []string{"tech/linux"}
	if i%2 == 1 {
		subjects = append(subjects, "world")
	}
	return &news.Item{
		Publisher: pub, ID: fmt.Sprintf("it-%d", i/2), Revision: 1 + i%2,
		Headline: fmt.Sprintf("item %d", i), Body: strings.Repeat("body ", 40+i),
		Subjects: subjects, Urgency: 1 + i%8,
	}
}

// TestKeptEnvelopeNeverChanges runs a simulated cluster with signing,
// acks, revision fusion, anti-entropy and resharing on — every path that
// hands a node an envelope: publishing, leaf deliver-copies, routed
// forwards, retransmits and state-transfer replies. Every envelope an item
// table keeps must equal the item's first kept copy at first sight, and
// still equal it after the cluster has run on: no forwarder, table or
// relay writes a received envelope.
func TestKeptEnvelopeNeverChanges(t *testing.T) {
	const n, pubs = 24, 2
	realm, err := NewRealm(vtime.NewVirtual(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	secs := make([]*Security, n)
	for i := range secs {
		if secs[i], err = realm.Member(fmt.Sprintf("node-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < pubs; p++ {
		if err := realm.Publisher(secs[p*n/pubs], fmt.Sprintf("pub-%d", p)); err != nil {
			t.Fatal(err)
		}
	}
	ledger := newKeptLedger()
	c, err := NewCluster(ClusterConfig{
		N: n, Branching: 4, Seed: 11,
		Customize: func(i int, cfg *Config) {
			cfg.Security = secs[i]
			cfg.AckTimeout = time.Second
			cfg.RepCount = 2
			cfg.FuseRevisions = true
			cfg.AntiEntropyEvery = 3
			cfg.ReshareRecovered = true
			cfg.OnItem = ledger.onItem(t, fmt.Sprintf("node-%d", i))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, node := range c.Nodes {
		subject := "tech/linux"
		if i%3 == 0 {
			subject = "world"
		}
		if err := node.Subscribe(subject); err != nil {
			t.Fatal(err)
		}
	}
	c.RunRounds(12)
	publish := func(from, to int) {
		for i := from; i < to; i++ {
			p := i % pubs
			if err := c.Nodes[p*n/pubs].PublishItem(ownershipItem(fmt.Sprintf("pub-%d", p), i), "", ""); err != nil {
				t.Fatal(err)
			}
			c.RunFor(300 * time.Millisecond)
		}
	}
	publish(0, 16)
	c.RunFor(5 * time.Second)
	// A node that was away recovers what it missed from its peers' tables.
	c.Net.Crash(c.Nodes[5].Addr())
	publish(16, 24)
	c.Net.Restore(c.Nodes[5].Addr())
	if err := c.Nodes[5].Resync(64); err != nil {
		t.Fatal(err)
	}
	c.RunRounds(6)
	publish(24, 32)
	c.RunRounds(12)
	if k := ledger.recheck(t); k < 16*n/2 {
		t.Fatalf("item tables kept %d envelopes; the run should keep most of 32 items at %d nodes", k, n)
	}
	if c.Nodes[5].Recovered() == 0 {
		t.Error("the node that was away recovered nothing; the run missed the state-transfer path")
	}
}

// lockedRand is a rand.Source64 for a node read from several goroutines.
type lockedRand struct {
	mu  sync.Mutex
	src rand.Source64
}

func (s *lockedRand) Int63() int64    { s.mu.Lock(); defer s.mu.Unlock(); return s.src.Int63() }
func (s *lockedRand) Uint64() uint64  { s.mu.Lock(); defer s.mu.Unlock(); return s.src.Uint64() }
func (s *lockedRand) Seed(seed int64) { s.mu.Lock(); defer s.mu.Unlock(); s.src.Seed(seed) }
func newLockedRand(seed int64) *rand.Rand {
	return rand.New(&lockedRand{src: rand.NewSource(seed).(rand.Source64)})
}

// TestKeptEnvelopeNeverChangesConcurrently is the same rule on four live
// nodes over loopback TCP, in two zones, with signing and acks on: every
// kept envelope is a decoded forward's block, read at once by its node's
// fan-out, the transport writers sending its span, ack timers and OnItem,
// while publishers on other goroutines go on. Under -race a write to any
// kept envelope is reported even where the snapshots would miss it.
func TestKeptEnvelopeNeverChangesConcurrently(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP test")
	}
	const n = 4
	realm, err := NewRealm(vtime.Real{}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	secs := make([]*Security, n)
	for i := range secs {
		if secs[i], err = realm.Member(fmt.Sprintf("live-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Every identity is minted before the first node starts: nodes read
	// the realm's store without a lock.
	for _, p := range []int{0, 2} {
		if err := realm.Publisher(secs[p], fmt.Sprintf("pub-%d", p)); err != nil {
			t.Fatal(err)
		}
	}
	ledger := newKeptLedger()
	var delivered [n]atomic.Int64
	nodes := make([]*Node, n)
	stop := make(chan struct{})
	var tickers sync.WaitGroup
	defer func() {
		close(stop)
		tickers.Wait()
		for _, node := range nodes {
			if node != nil {
				node.cfg.Transport.Close()
			}
		}
	}()
	for i := range nodes {
		var self atomic.Pointer[Node]
		tr, err := transport.ListenTCP("127.0.0.1:0", func(m *wire.Message) {
			if node := self.Load(); node != nil {
				node.HandleMessage(m)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		record := ledger.onItem(t, fmt.Sprintf("live-%d", i))
		node, err := NewNode(Config{
			Name: fmt.Sprintf("live-%d", i), ZonePath: []string{"/a", "/b"}[i/2],
			Transport: tr, Clock: vtime.Real{}, Rand: newLockedRand(int64(i + 1)),
			GossipInterval: 5 * time.Millisecond, Security: secs[i],
			AckTimeout: 50 * time.Millisecond, AntiEntropyEvery: 20,
			OnItem: func(it *news.Item, env *wire.ItemEnvelope) {
				record(it, env)
				delivered[i].Add(1)
			},
		})
		if err != nil {
			tr.Close()
			t.Fatal(err)
		}
		self.Store(node)
		nodes[i] = node
		if err := node.Subscribe("tech/linux"); err != nil {
			t.Fatal(err)
		}
		for _, peer := range nodes[:i] {
			node.IntroduceTo(peer.Addr())
		}
		tickers.Add(1)
		go func() {
			defer tickers.Done()
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					node.Tick()
				}
			}
		}()
	}
	// Publish from both publishers, several goroutines each, until every
	// node has kept items from the other zone and run on past that.
	deadline := time.Now().Add(20 * time.Second)
	for round := 0; round < 60 || !allAtLeast(delivered[:], 40); round++ {
		if time.Now().After(deadline) {
			t.Fatalf("deliveries after %d rounds: %d %d %d %d", round,
				delivered[0].Load(), delivered[1].Load(), delivered[2].Load(), delivered[3].Load())
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				p := 2 * (g % 2)
				it := ownershipItem(fmt.Sprintf("pub-%d", p), round*4+g)
				it.Published = time.Now()
				if err := nodes[p].PublishItem(it, "", ""); err != nil {
					t.Error(err)
				}
			}(g)
		}
		wg.Wait()
		time.Sleep(2 * time.Millisecond)
		if round%10 == 9 {
			ledger.recheck(t)
		}
	}
	time.Sleep(100 * time.Millisecond)
	ledger.recheck(t)
}

func allAtLeast(counts []atomic.Int64, n int64) bool {
	for i := range counts {
		if counts[i].Load() < n {
			return false
		}
	}
	return true
}
