package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"newswire/internal/news"
	"newswire/internal/pubsub"
	"newswire/internal/sim"
)

// losslessLink removes link loss so a full run and a virtual run are
// comparable: the two modes consume the engine RNG differently (virtual
// members do not gossip), so only the lossless delivery outcome — every
// subscribed member gets the item exactly once — is mode-independent.
var losslessLink = sim.LinkModel{
	LatencyMin: 20 * time.Millisecond,
	LatencyMax: 180 * time.Millisecond,
	LossRate:   0,
}

func publishOne(t *testing.T, c *Cluster, id string) {
	t.Helper()
	it := &news.Item{
		Publisher: "reuters", ID: id, Headline: "hl", Body: "b",
		Subjects: []string{"tech/linux"}, Urgency: 1,
		Published: c.Eng.Now(),
	}
	if err := c.Nodes[0].PublishItem(it, "", ""); err != nil {
		t.Fatalf("publish: %v", err)
	}
}

// TestVirtualLeavesDeliveryEquivalence runs the same deployment twice —
// every member a real node, then quiescent members virtualized — and
// checks the delivery fingerprints agree: over a lossless network every
// one of the 512 members accepts the published item exactly once in
// both modes, for each of three seeds.
func TestVirtualLeavesDeliveryEquivalence(t *testing.T) {
	const n = 512
	for _, seed := range []int64{1, 2, 3} {
		fingerprint := func(virtual bool) []int64 {
			cfg := ClusterConfig{
				N:         n,
				Branching: 64,
				Seed:      seed,
				Link:      losslessLink,
				Customize: func(i int, nc *Config) { nc.RepCount = 2 },
			}
			if virtual {
				cfg.VirtualSubjects = []string{"tech/linux"}
			}
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatalf("seed %d virtual=%v: %v", seed, virtual, err)
			}
			if !virtual {
				for _, node := range c.Nodes {
					if err := node.Subscribe("tech/linux"); err != nil {
						t.Fatal(err)
					}
				}
			}
			c.RunRounds(12) // let subscription summaries reach the root
			publishOne(t, c, fmt.Sprintf("item-%d", seed))
			c.RunFor(60 * time.Second)
			out := make([]int64, n)
			for i := range out {
				out[i] = c.NodeDelivered(i)
			}
			return out
		}
		full := fingerprint(false)
		virt := fingerprint(true)
		for i := 0; i < n; i++ {
			if full[i] != 1 {
				t.Fatalf("seed %d: full run node %d delivered %d times", seed, i, full[i])
			}
			if virt[i] != full[i] {
				t.Fatalf("seed %d: node %d delivered %d virtual vs %d full",
					seed, i, virt[i], full[i])
			}
		}
	}
}

// TestVirtualLeavesSerialParallelIdentical checks the virtual-leaf path
// keeps the executor guarantee: per-member delivery counts and network
// totals are identical between serial and parallel runs of one seed.
func TestVirtualLeavesSerialParallelIdentical(t *testing.T) {
	run := func(workers int) ([]int64, int64) {
		c, err := NewCluster(ClusterConfig{
			N: 256, Branching: 64, Seed: 9, Workers: workers,
			VirtualSubjects: []string{"tech/linux"},
			Customize:       func(i int, nc *Config) { nc.RepCount = 2 },
		})
		if err != nil {
			t.Fatal(err)
		}
		c.RunRounds(12)
		publishOne(t, c, "sp")
		c.RunFor(60 * time.Second)
		out := make([]int64, len(c.Nodes))
		for i := range out {
			out[i] = c.NodeDelivered(i)
		}
		sent, _, _ := c.Net.Totals()
		return out, sent
	}
	serial, sentS := run(0)
	parallel, sentP := run(2)
	if sentS != sentP {
		t.Fatalf("messages sent differ: serial %d, parallel %d", sentS, sentP)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("node %d: delivered %d serial vs %d parallel", i, serial[i], parallel[i])
		}
	}
}

// TestMaterializeNode promotes a virtual leaf mid-run and checks both
// accounting phases: the item published while virtual is in the bitset,
// the one published after materialization lands in the real node, and
// NodeDelivered sums them.
func TestMaterializeNode(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		N: 64, Branching: 16, Seed: 5, Link: losslessLink,
		VirtualSubjects: []string{"tech/linux"},
	})
	if err != nil {
		t.Fatal(err)
	}
	const target = 10 // pos 10 of zone 0: virtual (4 materialized per zone)
	if c.Nodes[target] != nil {
		t.Fatalf("node %d expected virtual at construction", target)
	}
	virtBefore := virtualMembers(c)
	c.RunRounds(10)
	publishOne(t, c, "while-virtual")
	c.RunFor(30 * time.Second)
	if got := c.NodeDelivered(target); got != 1 {
		t.Fatalf("virtual phase: delivered %d, want 1", got)
	}

	node, err := c.MaterializeNode(target)
	if err != nil {
		t.Fatal(err)
	}
	if node == nil || c.Nodes[target] != node {
		t.Fatal("materialized node not installed")
	}
	if again, _ := c.MaterializeNode(target); again != node {
		t.Fatal("MaterializeNode not idempotent")
	}
	if got := virtualMembers(c); got != virtBefore-1 {
		t.Fatalf("VirtualMembers %d, want %d", got, virtBefore-1)
	}
	c.RunRounds(4) // let the fresh own row replace the template via gossip
	publishOne(t, c, "after-materialize")
	c.RunFor(30 * time.Second)
	if got := node.Delivered(); got != 1 {
		t.Fatalf("real phase: node delivered %d, want 1", got)
	}
	if got := c.NodeDelivered(target); got != 2 {
		t.Fatalf("combined: NodeDelivered %d, want 2", got)
	}
}

// TestVirtualLeavesRejectPredicateMode: template rows advertise a raw
// Bloom subs filter that ModePredicate's forwarding test never reads, so
// the combination must fail at construction instead of misrouting.
func TestVirtualLeavesRejectPredicateMode(t *testing.T) {
	_, err := NewCluster(ClusterConfig{
		N: 16, Branching: 8, Seed: 1,
		VirtualSubjects: []string{"tech/linux"},
		Customize:       func(i int, nc *Config) { nc.Mode = pubsub.ModePredicate },
	})
	if err == nil {
		t.Fatal("VirtualSubjects with ModePredicate accepted")
	}
	for _, field := range []string{"VirtualSubjects", "Mode"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("error %q does not name %s", err, field)
		}
	}
}

// virtualMembers counts the cluster's members that are currently virtual:
// the templates its virtual zones still hold.
func virtualMembers(c *Cluster) int {
	n := 0
	for _, vz := range c.vzones {
		for _, t := range vz.templates {
			if t != nil {
				n++
			}
		}
	}
	return n
}
