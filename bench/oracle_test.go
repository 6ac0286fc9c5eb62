package main

import (
	"crypto/sha256"
	"testing"
)

func TestLedgerFailureAccounting(t *testing.T) {
	bodies := []string{"alpha", "beta", "gamma"}
	hashes := make([][sha256.Size]byte, len(bodies))
	for i, b := range bodies {
		hashes[i] = sha256.Sum256([]byte(b))
	}
	// Three nodes; node 2 subscribes to nothing, nodes 0 and 1 to every item.
	want := func(item, node int) bool { return node < 2 }
	const first = 100
	l, err := newLedger(3, first, hashes, want, len(bodies))
	if err != nil {
		t.Fatal(err)
	}
	for i := range bodies {
		l.due[i].Store(1000)
	}

	// Item 0: delivered to both subscribers, once each.
	l.deliver(first+0, 0, 3000, "alpha")
	l.deliver(first+0, 1, 5000, "alpha")
	select {
	case i := <-l.completed:
		if i != 0 {
			t.Errorf("completed item %d, want 0", i)
		}
	default:
		t.Error("item 0 has both deliveries and must be complete")
	}
	// Item 1: one delivery twice (duplicate), one to the non-subscriber
	// (stray), the second subscriber never gets it (missing).
	l.deliver(first+1, 0, 2000, "beta")
	l.deliver(first+1, 0, 2500, "beta")
	l.deliver(first+1, 2, 2600, "beta")
	// Item 2: both deliveries arrive, one with a damaged body (corrupt).
	l.deliver(first+2, 0, 2000, "gamma")
	l.deliver(first+2, 1, 2100, "gamm4")
	// An item of another phase is not booked here.
	if l.deliver(first+3, 0, 2000, "delta") || l.deliver(first-1, 0, 2000, "delta") {
		t.Error("items outside the phase must be refused")
	}

	got := l.close()
	if got.ops != 6 || got.missing != 1 || got.duplicate != 1 || got.stray != 1 || got.corrupt != 1 {
		t.Errorf("tally = %d ops, %d missing, %d duplicate, %d stray, %d corrupt; want 6, 1, 1, 1, 1",
			got.ops, got.missing, got.duplicate, got.stray, got.corrupt)
	}
	if got.failed() != 4 {
		t.Errorf("failed = %d, want 4", got.failed())
	}
	// Latencies run from the due time: 2, 4 (item 0), 1 (item 1), 1, 1.1 (item 2) µs.
	if len(got.deliverMs) != 5 || got.deliverMs[len(got.deliverMs)-1] != 0.004 {
		t.Errorf("delivery latencies = %v, want 5 samples with maximum 0.004 ms", got.deliverMs)
	}
	// Items 0 and 2 completed, at their last delivery.
	if len(got.doneMs) != 2 || got.doneMs[0] != 0.0011 || got.doneMs[1] != 0.004 {
		t.Errorf("completion latencies = %v, want [0.0011 0.004]", got.doneMs)
	}

	if _, err := newLedger(3, 0, hashes, func(int, int) bool { return false }, 0); err == nil {
		t.Error("an item no subscriber matches is a generator bug and must be refused")
	}
}

func TestSelectiveOracleMatchesOneToThreeNodes(t *testing.T) {
	in, err := genSelective(7, selNodes, []int{5000})
	if err != nil {
		t.Fatal(err)
	}
	for node, qs := range in.queries {
		if len(qs) != 2 {
			t.Errorf("node %d has %d predicates, want 2", node, len(qs))
		}
	}
	seen := map[int]int{}
	for g := range in.items {
		c := 0
		for node := 0; node < selNodes; node++ {
			if in.want(g, node) {
				c++
			}
		}
		if c < 1 || c > 3 {
			t.Fatalf("item %d matches %d nodes, want 1..3", g, c)
		}
		seen[c]++
	}
	if seen[1] == 0 || seen[2] == 0 || seen[3] == 0 {
		t.Errorf("match counts %v: want items matching 1, 2 and 3 nodes", seen)
	}
	if g, ok := itemIndex(in.items[4321].ID); !ok || g != 4321 {
		t.Errorf("itemIndex(%q) = %d, %v", in.items[4321].ID, g, ok)
	}
}
