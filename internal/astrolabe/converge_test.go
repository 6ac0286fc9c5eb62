package astrolabe

import (
	"testing"

	"newswire/internal/value"
)

// convergenceZones is sixteen agents in four leaf zones under two regions:
// every exchange crosses a leaf table and one or two aggregate tables.
var convergenceZones = func() []string {
	var zones []string
	for _, leaf := range []string{"/east/a", "/east/b", "/west/c", "/west/d"} {
		for i := 0; i < 4; i++ {
			zones = append(zones, leaf)
		}
	}
	return zones
}()

// roundsUntil runs gossip rounds until done holds, and fails past max.
func roundsUntil(t *testing.T, c *testCluster, max int, done func() bool) int {
	t.Helper()
	for r := 0; r <= max; r++ {
		if done() {
			return r
		}
		c.runRounds(1)
	}
	t.Fatalf("not converged after %d rounds", max)
	return 0
}

// everyoneSees reports whether every agent holds every member of its leaf
// zone with attribute mark = want, and a root table that adds up to the
// whole population.
func everyoneSees(c *testCluster, mark string, want value.Value) bool {
	for _, a := range c.agents {
		members := 0
		for _, z := range convergenceZones {
			if z == a.ZonePath() {
				members++
			}
		}
		leaf, _ := a.Table(a.ZonePath())
		if len(leaf) != members {
			return false
		}
		for _, row := range leaf {
			if got := row.Attrs[mark]; got.IsValid() != want.IsValid() || (want.IsValid() && !got.Equal(want)) {
				return false
			}
		}
		root, _ := a.Table(RootZone)
		total := int64(0)
		for _, row := range root {
			n, _ := row.Attrs[AttrMembers].AsInt()
			total += n
		}
		if total != int64(len(c.agents)) {
			return false
		}
	}
	return true
}

// TestColdStartAndFullMismatchRounds bounds how many gossip rounds the
// delta exchange needs in the two cases where no table matches its peer's:
// a cluster whose agents each know one other agent, and a converged cluster
// in which every agent changes its row at once. Every exchange then takes
// the mismatch path — a bare section answered by a named one — and that
// costs a message, never a round: the bounds are what the per-row digest
// protocol (through PR 23) took on the same clusters, 7 and 3.
func TestColdStartAndFullMismatchRounds(t *testing.T) {
	const coldRounds, mismatchRounds = 7, 3

	cold := newStrangerCluster(t, convergenceZones, nil)
	// A ring of introductions: each agent learns the chain rows of the next.
	for i, a := range cold.agents {
		a.MergeRows(cold.agents[(i+1)%len(cold.agents)].ChainRowUpdates())
	}
	if got := roundsUntil(t, cold, 40, func() bool { return everyoneSees(cold, "mark", value.Value{}) }); got > coldRounds {
		t.Errorf("cold start converged in %d rounds, want at most %d", got, coldRounds)
	}

	c := newTestCluster(t, convergenceZones, nil)
	c.runRounds(12)
	for _, a := range c.agents {
		a.SetAttr("mark", value.Int(7))
	}
	if got := roundsUntil(t, c, 40, func() bool { return everyoneSees(c, "mark", value.Int(7)) }); got > mismatchRounds {
		t.Errorf("full mismatch converged in %d rounds, want at most %d", got, mismatchRounds)
	}
}
