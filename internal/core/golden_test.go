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
// constants recorded before the row model split freshness from content:
// the bytes the simulated network carried, every node's table content
// fingerprint, and the full table state including issue stamps and owners.
// The scenario crosses every path that reads or moves a stamp — heartbeats,
// digest/delta exchanges with re-stamps, expiry after a crash, aggregate
// re-stamps, recovery-peer draws on restore and item anti-entropy — so a
// change that alters one byte sent, one RNG draw or one stamp fails here.
//
// wantSent and wantDelivered were recorded again (from 10749160/10604584)
// when state requests began to carry a summary of what the requester holds
// and replies only the envelopes missing from it: requests grew by 8 bytes
// a held item, replies lost the envelopes nobody needed. wantContent and
// wantState stayed: no message was added or dropped, no RNG draw moved and
// every delivery happened at the same instant.
func TestGossipGoldenBytes(t *testing.T) {
	const (
		wantSent      = int64(10385468)
		wantDelivered = int64(10243562)
		wantContent   = "ce367f0b6ad5870fad7430859c5e3b50be441a56756dc34307f8a1127cf0a733"
		wantState     = "4d340beaed342e4b7fc8e0a0d08654eec73ced6eb42640db7baa58575d928805"
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
