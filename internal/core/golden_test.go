package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"newswire/internal/news"
)

// TestGossipGoldenBytes pins the control plane's observable behaviour to
// recorded constants: the bytes the simulated network carried, every node's
// table content fingerprint, and the full table state including issue
// stamps and owners. The scenario crosses every path that reads or moves a
// stamp — heartbeats, digest/delta exchanges with re-stamps, expiry after a
// crash, aggregate re-stamps, recovery-peer draws on restore and item
// anti-entropy — so a change that alters one byte sent, one RNG draw or one
// stamp fails here. A change that means to alter the protocol records the
// constants again and says here what moved and why.
//
// History: 10749160/10604584 bytes before the row model split freshness
// from content; 10385468/10243562 once state requests summarized what the
// requester holds (fingerprints unchanged: no message added, no RNG draw
// moved). All four constants were recorded again when gossip digests became
// one section per zone table — a content hash and a positional lag vector —
// with stamps that index the section they answer: a third fewer bytes; a
// table whose hash mismatches is now described by name on the answering
// leg and diffed by the initiator, one message later than before, so the
// engine's RNG pairs its draws with other messages and stamps land at other
// instants; and FingerprintTables folds the tables' content hashes where it
// used to hash each row.
func TestGossipGoldenBytes(t *testing.T) {
	const (
		wantSent      = int64(6789695)
		wantDelivered = int64(6699318)
		wantContent   = "009c4a5e49bff2204bbbcf57c7d06e5e4ba4e299cfb7d8b7859d307971645c0d"
		wantState     = "2df9e2adf8a02a12dcb9aa014162c2f4c416e18f29bc7c549c116356229b858f"
	)
	c, err := NewCluster(ClusterConfig{
		N:         256,
		Branching: 16,
		Seed:      20021,
		Customize: func(i int, cfg *Config) {
			cfg.AckTimeout = time.Second
			cfg.AntiEntropyEvery = 3
		},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	subjects := []string{"tech/linux", "world/europe", "sports/chess", "business/markets"}
	for i, n := range c.Nodes {
		if err := n.Subscribe(subjects[i%len(subjects)], subjects[(i/16)%len(subjects)]); err != nil {
			t.Fatalf("subscribe: %v", err)
		}
	}
	publish := func(from, k int) {
		t.Helper()
		it := &news.Item{
			Publisher: fmt.Sprintf("pub-%d", from), ID: fmt.Sprintf("item-%d", k),
			Headline: "h", Body: "b", Subjects: []string{subjects[k%len(subjects)]},
			Urgency: 1 + k%8, Published: c.Eng.Now(),
		}
		if err := c.Nodes[from].PublishItem(it, "", ""); err != nil {
			t.Fatalf("publish %d: %v", k, err)
		}
	}
	restore := func(i int) {
		t.Helper()
		c.Net.Restore(c.Nodes[i].Addr())
		if err := c.Nodes[i].RecoverFromZonePeer(64); err != nil {
			t.Fatalf("recover node %d: %v", i, err)
		}
	}
	// 30 rounds: two crashes long enough for the victims' rows to expire
	// (FailTimeout is 10 rounds) and their zones to re-aggregate, two
	// restores, six items from four publishers.
	c.RunRounds(6)
	publish(0, 0)
	c.Net.Crash(c.Nodes[37].Addr())
	c.RunRounds(3)
	publish(64, 1)
	publish(129, 2)
	c.Net.Crash(c.Nodes[192].Addr()) // an elected representative of /z12
	c.RunRounds(9)
	publish(0, 3)
	restore(37)
	c.RunRounds(6)
	publish(250, 4)
	restore(192)
	c.RunRounds(6)
	publish(64, 5)

	sent, delivered := c.Net.BytesTotals()
	h := sha256.New()
	for _, n := range c.Nodes {
		fmt.Fprintf(h, "%s=%016x|", n.Addr(), n.Agent().FingerprintTables())
	}
	content := hex.EncodeToString(h.Sum(nil))
	state := fingerprint(t, c)
	if sent != wantSent || delivered != wantDelivered {
		t.Errorf("network bytes sent/delivered = %d/%d, want %d/%d", sent, delivered, wantSent, wantDelivered)
	}
	if content != wantContent {
		t.Errorf("table content fingerprints = %s, want %s", content, wantContent)
	}
	if state != wantState {
		t.Errorf("full table state (stamps, owners, deliveries) = %s, want %s", state, wantState)
	}
}
