package core

import (
	"testing"
	"time"

	"newswire/internal/astrolabe"
	"newswire/internal/sim"
	"newswire/internal/wire"
)

// TestIntroduceToBootstrapsInOneExchange: a join is one delta exchange.
// With no node ticking, a joiner that introduces itself to one peer ends
// up holding the peer's rows of every table the two share, and the peer
// holds the joiner's leaf row (same zone) or its zone's aggregate row
// (fresh zone). The join leaves through the joiner's agent, so its bytes
// count in the agent's own gossip ledger.
func TestIntroduceToBootstrapsInOneExchange(t *testing.T) {
	// Lossless: the test is of the exchange, not of the epidemic's repair.
	c, err := NewCluster(ClusterConfig{N: 32, Branching: 8, Seed: 3,
		Link: sim.LinkModel{LatencyMin: 20 * time.Millisecond, LatencyMax: 180 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	c.RunRounds(8)
	peer := c.Nodes[5]
	for i, tc := range []struct {
		name, node, zone string
		// table and row name the peer's row that stands for the joiner.
		table, row string
	}{
		{"same zone", "joiner-0", peer.ZonePath(), peer.ZonePath(), "joiner-0"},
		{"fresh zone", "joiner-1", "/z09", astrolabe.RootZone, "z09"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var joiner *Node
			ep := c.Net.Attach(tc.node, func(m *wire.Message) { joiner.HandleMessage(m) })
			j, err := NewNode(Config{
				Name: tc.node, ZonePath: tc.zone, Transport: ep,
				Clock: c.Eng.Clock(), Rand: newTestRand(int64(100 + i)),
			})
			if err != nil {
				t.Fatal(err)
			}
			joiner = j
			joiner.IntroduceTo(peer.Addr())
			c.RunFor(time.Second)

			shared := astrolabe.ZoneDepth(astrolabe.CommonAncestor(tc.zone, peer.ZonePath())) + 1
			for _, zone := range peer.Agent().Chain()[:shared] {
				rows, _ := peer.Agent().Table(zone)
				for _, r := range rows {
					if _, ok := joiner.Agent().Row(zone, r.Name); !ok {
						t.Errorf("joiner lacks the peer's row %s in %s", r.Name, zone)
					}
				}
			}
			if _, ok := peer.Agent().Row(tc.table, tc.row); !ok {
				t.Errorf("peer lacks the joiner's row %s in %s", tc.row, tc.table)
			}
			if st := joiner.Agent().Stats(); st.GossipsSent != 1 || st.GossipBytesSent == 0 {
				t.Errorf("joiner's gossip ledger after the join: %d sent, %d bytes", st.GossipsSent, st.GossipBytesSent)
			}
		})
	}
}
