package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
	"time"

	"newswire/internal/news"
	"newswire/internal/wire"
)

// fingerprint digests every node's entire replicated state — every row of
// every zone table, including issue stamps, owners and the canonical
// attribute encoding — plus network totals and delivery counts. Two runs
// with equal fingerprints produced bit-identical tables.
func fingerprint(t *testing.T, c *Cluster) string {
	t.Helper()
	h := sha256.New()
	for _, n := range c.Nodes {
		ag := n.Agent()
		for _, zone := range ag.Chain() {
			rows, ok := ag.Table(zone)
			if !ok {
				t.Fatalf("node %s missing table %s", n.Addr(), zone)
			}
			for _, r := range rows {
				fmt.Fprintf(h, "%s|%s|%s|%d|%s|", n.Addr(), zone, r.Name, r.Issued.UnixNano(), r.Owner)
				h.Write(r.Attrs.AppendBinary(nil))
				h.Write([]byte{0})
			}
		}
		fmt.Fprintf(h, "delivered=%d|", n.Delivered())
	}
	sent, delivered, dropped := c.Net.Totals()
	fmt.Fprintf(h, "net=%d/%d/%d", sent, delivered, dropped)
	return hex.EncodeToString(h.Sum(nil))
}

// scenarioFingerprint is fingerprint plus the network's byte totals and its
// per-kind ledger, which the serial engine counts in transmit and the
// parallel executor at commit. (fingerprint itself stays as recorded in
// TestGossipGoldenBytes.)
func scenarioFingerprint(t *testing.T, c *Cluster) string {
	t.Helper()
	sent, delivered := c.Net.BytesTotals()
	fp := fingerprint(t, c) + fmt.Sprintf("|bytes=%d/%d", sent, delivered)
	for k := wire.KindInvalid; k <= wire.KindClockPong; k++ {
		fp += fmt.Sprintf("|%s=%+v", k, c.Net.SentByKind(k))
	}
	return fp
}

// runScenario drives a representative workload: gossip rounds (tick
// phase), subscription aggregation, a publication fanning out through the
// multicast tree, and free-running virtual time (window phase).
func runScenario(t *testing.T, n int, seed int64, workers int) string {
	t.Helper()
	cluster, err := NewCluster(ClusterConfig{
		N:       n,
		Seed:    seed,
		Workers: workers,
		Customize: func(i int, cfg *Config) {
			cfg.RepCount = 2
		},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	for _, node := range cluster.Nodes {
		if err := node.Subscribe("tech/linux"); err != nil {
			t.Fatalf("subscribe: %v", err)
		}
	}
	cluster.RunRounds(6)
	it := &news.Item{
		Publisher: "reuters", ID: "breaking", Headline: "h",
		Body: "b", Subjects: []string{"tech/linux"}, Urgency: 1,
		Published: cluster.Eng.Now(),
	}
	if err := cluster.Nodes[0].PublishItem(it, "", ""); err != nil {
		t.Fatalf("publish: %v", err)
	}
	cluster.RunFor(20 * time.Second)
	return scenarioFingerprint(t, cluster)
}

// TestParallelMatchesSerialTables is the tentpole's determinism gate: for
// several seeds, a 512-node cluster run under the parallel executor must
// produce byte-identical zone tables (and traffic/delivery counters) to
// the serial event loop.
func TestParallelMatchesSerialTables(t *testing.T) {
	n := 512
	if testing.Short() {
		n = 128
	}
	for _, seed := range []int64{1, 7, 42} {
		serial := runScenario(t, n, seed, 0)
		parallel := runScenario(t, n, seed, 4)
		if serial != parallel {
			t.Errorf("seed %d: parallel run diverged from serial (fingerprint %s vs %s)",
				seed, parallel[:16], serial[:16])
		}
	}
}

// TestParallelDeterministicAcrossGOMAXPROCS pins the stronger property:
// the parallel executor's output does not depend on how much hardware
// parallelism the host actually provides.
func TestParallelDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	one := runScenario(t, 256, 99, 4)
	runtime.GOMAXPROCS(4)
	four := runScenario(t, 256, 99, 4)
	if one != four {
		t.Errorf("GOMAXPROCS=1 vs =4 fingerprints differ: %s vs %s", one[:16], four[:16])
	}
}

// TestParallelRejectsSubLookaheadTimer documents the executor's one
// restriction: protocol timers shorter than the conservative lookahead
// window cannot be parallelized and must use the serial engine.
func TestParallelRejectsSubLookaheadTimer(t *testing.T) {
	_, err := NewCluster(ClusterConfig{
		N:       4,
		Seed:    1,
		Workers: 2,
		Customize: func(i int, cfg *Config) {
			cfg.AckTimeout = time.Millisecond // below DefaultWAN's 20ms floor
		},
	})
	if err == nil {
		t.Fatal("expected NewCluster to reject AckTimeout below the link lookahead")
	}
}
