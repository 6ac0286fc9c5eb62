package chaos_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"newswire/internal/core"
	"newswire/internal/news"
	"newswire/internal/sim/chaos"
)

// miniScramble is a small scramble scenario for property tests: big
// enough for a three-level tree, small enough to run at many seeds.
func miniScramble(frac float64) chaos.Scenario {
	return chaos.Scenario{
		Name: "mini-scramble", Nodes: 48, Branching: 16,
		AckTimeout: time.Second, Warmup: 8,
		Events: []chaos.Event{
			{Kind: chaos.PublishBurst, Round: 0, Count: 6},
			{Kind: chaos.ScrambleState, Round: 1, Frac: frac},
		},
		MaxRounds: 6, QuietRounds: 5, DeliveryFloor: 0.5,
		Subjects:   []string{"tech/security", "world/politics"},
		SeedOffset: 11,
	}
}

// TestSerialParallelIdentical asserts the bit-identity contract: the same
// scenario at the same seed yields byte-for-byte equal results under the
// serial engine and the parallel executor.
func TestSerialParallelIdentical(t *testing.T) {
	for _, name := range chaos.QuickNames() {
		sc, ok := chaos.ByName(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		serial, err := chaos.Run(sc, chaos.Options{Seed: 42, Workers: 0})
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		par, err := chaos.Run(sc, chaos.Options{Seed: 42, Workers: -1})
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("%s: serial and parallel results differ:\nserial:   %+v\nparallel: %+v",
				name, serial, par)
		}
	}
}

// TestRunDeterministic asserts that repeating a run at the same seed
// reproduces the result exactly, and that a different seed still
// converges.
func TestRunDeterministic(t *testing.T) {
	sc, _ := chaos.ByName("partition-heal")
	a, err := chaos.Run(sc, chaos.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaos.Run(sc, chaos.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
	if a.FinalDelivery != 1 {
		t.Errorf("partition-heal final delivery = %v, want 1", a.FinalDelivery)
	}
}

// TestScrambleAlwaysConverges is the self-stabilization property test:
// across 16 random seeds, scrambling a third of every node's rows and
// queues always converges back to 100% delivery with tables whose
// fingerprint matches a never-scrambled twin run.
func TestScrambleAlwaysConverges(t *testing.T) {
	sc := miniScramble(0.35)
	for seed := int64(1); seed <= 16; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			res, err := chaos.Run(sc, chaos.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if res.RowsScrambled == 0 {
				t.Fatal("scramble touched no rows — test is vacuous")
			}
			if res.FinalDelivery != 1 {
				t.Errorf("final delivery = %v, want 1", res.FinalDelivery)
			}
			if res.SelfHealed == nil || !*res.SelfHealed {
				t.Errorf("self-healed = %v, want true (fingerprint must match clean twin)", res.SelfHealed)
			}
		})
	}
}

// TestChurnStormMaterializes asserts the churn arm's virtual-leaf
// contract: storms over a mostly-virtual cluster must materialize their
// victims (crashing a template row tests nothing) and still converge.
func TestChurnStormMaterializes(t *testing.T) {
	sc, ok := chaos.ByName("churn-storm")
	if !ok {
		t.Fatal("churn-storm not registered")
	}
	res, err := chaos.Run(sc, chaos.Options{Seed: 1, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 {
		t.Fatal("storm crashed nobody")
	}
	if res.Materialized == 0 {
		t.Error("no virtual victim was materialized — the storm only hit the few real members")
	}
	if res.FinalDelivery != 1 {
		t.Errorf("final delivery = %v, want 1", res.FinalDelivery)
	}
	if res.ConvergenceRounds > sc.MaxRounds {
		t.Errorf("convergence took %d rounds, bound %d", res.ConvergenceRounds, sc.MaxRounds)
	}
}

// TestCorruptReject asserts the secure arm: scrambled rows carry
// signatures that no longer match their payload, so peers must reject
// them via certificate verification — and the run still self-heals.
func TestCorruptReject(t *testing.T) {
	sc, ok := chaos.ByName("corrupt-reject")
	if !ok {
		t.Fatal("corrupt-reject not registered")
	}
	res, err := chaos.Run(sc, chaos.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsScrambled == 0 {
		t.Fatal("scramble touched no rows")
	}
	if res.RowsRejected == 0 {
		t.Error("no corrupted row was rejected by signature verification")
	}
	if res.FinalDelivery != 1 {
		t.Errorf("final delivery = %v, want 1", res.FinalDelivery)
	}
	if res.SelfHealed == nil || !*res.SelfHealed {
		t.Errorf("self-healed = %v, want true", res.SelfHealed)
	}
}

// TestMaterializedCrashAccounting is the regression test for delivery
// accounting across the virtual→real→crashed→recovered lifecycle: items
// counted against a member's virtual bitset must not count again when the
// materialized node recovers them into its own cache.
func TestMaterializedCrashAccounting(t *testing.T) {
	subjects := []string{"tech/security"}
	cluster, err := core.NewCluster(core.ClusterConfig{
		N: 32, Branching: 16, Seed: 5,
		VirtualSubjects: subjects,
		Customize: func(i int, cfg *core.Config) {
			cfg.AckTimeout = time.Second
			cfg.ReshareRecovered = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.RunRounds(8)

	const itemCount = 5
	pubAt := cluster.Eng.Now()
	for i := 0; i < itemCount; i++ {
		it := &news.Item{
			Publisher: "reuters", ID: fmt.Sprintf("acct-%d", i),
			Headline: "x", Body: "y", Subjects: subjects, Published: pubAt,
		}
		if err := cluster.Nodes[0].PublishItem(it, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	cluster.RunRounds(4)

	// Pick a virtual member, check its bitset is full, then materialize.
	const victim = 10
	if cluster.Nodes[victim] != nil {
		t.Fatalf("node %d expected virtual", victim)
	}
	if got := cluster.NodeDelivered(victim); got != itemCount {
		t.Fatalf("virtual member delivered %d of %d before materialization", got, itemCount)
	}
	node, err := cluster.MaterializeNode(victim)
	if err != nil {
		t.Fatal(err)
	}
	cluster.RunRounds(2)

	// Crash it, publish one more item while it is down, restore, recover.
	cluster.Net.Crash(node.Addr())
	it := &news.Item{
		Publisher: "reuters", ID: "acct-late",
		Headline: "x", Body: "y", Subjects: subjects, Published: cluster.Eng.Now(),
	}
	if err := cluster.Nodes[0].PublishItem(it, "", ""); err != nil {
		t.Fatal(err)
	}
	cluster.RunRounds(3)
	cluster.Net.Restore(node.Addr())
	if err := node.RecoverFromZonePeer(32); err != nil {
		t.Fatal(err)
	}
	cluster.RunRounds(3)

	// The recovery pass re-fetched all 6 items into the node's cache. The
	// 5 virtual-phase items stay counted by the bitset alone; the node
	// itself must only count the late one.
	const total = itemCount + 1
	if got := cluster.NodeDelivered(victim); got != total {
		t.Errorf("NodeDelivered = %d, want exactly %d (virtual bitset + late item, no double count)",
			got, total)
	}
	if got := node.Delivered(); got != 1 {
		t.Errorf("node.Delivered = %d, want 1 (only the post-materialization item)", got)
	}
}
