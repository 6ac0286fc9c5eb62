package core

import (
	"time"

	"newswire/internal/wire"
	"testing"

	"newswire/internal/astrolabe"
)

func TestChooseZoneNilView(t *testing.T) {
	if _, err := ChooseZone(nil, 8); err == nil {
		t.Fatal("nil view accepted")
	}
}

func TestChooseZoneJoinsExistingLeafZone(t *testing.T) {
	// A flat cluster whose leaf zones have room: the joiner should be
	// placed into the least-populated leaf zone.
	c, err := NewCluster(ClusterConfig{N: 6, Branching: 4, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	c.RunRounds(6)

	// 6 nodes, branching 4 -> zones z00 (4 members) and z01 (2 members).
	zone, err := ChooseZone(c.Nodes[0].Agent(), 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, n := range c.Nodes {
		counts[n.ZonePath()]++
	}
	if counts[zone] >= 4 {
		t.Fatalf("placed into full zone %s (members %d)", zone, counts[zone])
	}
	// It must be the emptiest one.
	for z, n := range counts {
		if n < counts[zone] {
			t.Fatalf("zone %s has %d members < chosen %s's %d", z, n, zone, counts[zone])
		}
	}
}

func TestChooseZoneProposesFreshSibling(t *testing.T) {
	// All leaf zones full but the parent has room: expect a new sibling
	// zone name that does not collide.
	c, err := NewCluster(ClusterConfig{N: 8, Branching: 4, Seed: 67})
	if err != nil {
		t.Fatal(err)
	}
	c.RunRounds(6)
	// 8 nodes, branching 4 -> two full zones of 4 under the root, room
	// for more sibling zones.
	zone, err := ChooseZone(c.Nodes[0].Agent(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := astrolabe.ValidateZonePath(zone); err != nil {
		t.Fatalf("invalid placement %q: %v", zone, err)
	}
	for _, n := range c.Nodes {
		if n.ZonePath() == zone {
			t.Fatalf("expected a fresh zone, got existing %s", zone)
		}
	}
}

func TestChooseZonePlacementIsJoinable(t *testing.T) {
	// End to end: place a joiner, create it there, and verify it
	// integrates.
	c, err := NewCluster(ClusterConfig{N: 6, Branching: 4, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	c.RunRounds(6)
	zone, err := ChooseZone(c.Nodes[0].Agent(), 4)
	if err != nil {
		t.Fatal(err)
	}

	var joiner *Node
	ep := c.Net.Attach("placed", func(m *wire.Message) { joiner.HandleMessage(m) })
	j, err := NewNode(Config{
		Name: "placed-node", ZonePath: zone, Transport: ep,
		Clock: c.Eng.Clock(), Rand: newTestRand(4321),
	})
	if err != nil {
		t.Fatal(err)
	}
	joiner = j
	joiner.Agent().MergeRows(c.Nodes[0].Agent().ChainRowUpdates())
	// Introduce to the placement zone's current representatives (if the
	// zone already exists), read from its row in a member's tables, so its
	// leaf table arrives before the joiner's own partial aggregates can
	// circulate.
	joiner.IntroduceTo(zoneRepresentatives(c.Nodes[0], zone)...)
	c.Eng.RunFor(time.Second)

	for round := 0; round < 8; round++ {
		for _, n := range c.Nodes {
			n.Tick()
		}
		joiner.Tick()
		c.Eng.RunFor(2 * time.Second)
	}
	// The cluster's root tables now count the joiner.
	total := int64(0)
	rows, _ := c.Nodes[0].Agent().Table(astrolabe.RootZone)
	for _, r := range rows {
		n, _ := r.Attrs[astrolabe.AttrMembers].AsInt()
		total += n
	}
	if total != 7 {
		t.Fatalf("root member count = %d, want 7 after join", total)
	}
}

// zoneRepresentatives reads the representative addresses n's tables list
// for zone: the zone's row in its parent's table.
func zoneRepresentatives(n *Node, zone string) []string {
	parent, ok := astrolabe.ParentZone(zone)
	if !ok {
		return nil
	}
	row, ok := n.Agent().Row(parent, astrolabe.ZoneName(zone))
	if !ok {
		return nil
	}
	if reps, ok := row.Attrs[astrolabe.AttrReps].AsStrings(); ok {
		return reps
	}
	if addr, ok := row.Attrs[astrolabe.AttrAddr].AsString(); ok {
		return []string{addr}
	}
	return nil
}
