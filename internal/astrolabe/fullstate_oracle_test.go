package astrolabe

import (
	"testing"

	"newswire/internal/transport"
	"newswire/internal/wire"
)

// The full-state exchange is the pre-digest anti-entropy protocol, kept
// here as the reference delta gossip is tested against. Each exchange an
// agent it drives opens in Tick becomes a push-pull of whole tables: the
// agent ships every row of the tables the two agents share to its
// partner, and the partner ships its rows of the same tables back, each
// leg one rows-only KindGossipDelta — the rows the retired
// KindGossip/KindGossipReply pair carried. Both legs leave when the
// exchange opens rather than the reply on the request's arrival, which
// only matters on a lossy link; the tests below run lossless ones.

// newFullStateCluster is newTestCluster with the agents for which driven
// returns true gossiping by the full-state exchange. They still answer
// other agents' digests and deltas as any agent does.
func newFullStateCluster(t *testing.T, zones []string, driven func(i int) bool) *testCluster {
	t.Helper()
	c := newTestCluster(t, zones, nil)
	byAddr := make(map[string]*Agent, len(c.agents))
	for _, a := range c.agents {
		byAddr[a.addr] = a
	}
	for i, a := range c.agents {
		if driven(i) {
			a.cfg.Transport = &fullStateTransport{Transport: a.cfg.Transport, agent: a, peers: byAddr}
		}
	}
	return c
}

// fullStateTransport turns each digest its agent opens an exchange with
// into the two full-state legs, and sends everything else as it is. The
// agent's own counters still count the digest; the network's count what
// was sent.
type fullStateTransport struct {
	transport.Transport
	agent *Agent
	peers map[string]*Agent // every agent of the cluster, by address
}

func (t *fullStateTransport) Send(to string, msg *wire.Message) error {
	if msg.Kind != wire.KindGossipDigest {
		return t.Transport.Send(to, msg)
	}
	pushSharedRows(t.agent, to, len(msg.GossipDigest.Sections))
	if peer := t.peers[to]; peer != nil {
		peer.mu.Lock()
		shared := peer.sharedTablesLocked(t.agent.leaf)
		peer.mu.Unlock()
		pushSharedRows(peer, t.agent.addr, shared)
	}
	return nil
}

// pushSharedRows sends every row of from's first shared tables to the
// agent at to, as one rows-only delta.
func pushSharedRows(from *Agent, to string, shared int) {
	from.mu.Lock()
	msg := &wire.Message{
		Kind: wire.KindGossipDelta,
		From: from.addr,
		GossipDelta: &wire.GossipDelta{
			FromZone: from.leaf,
			Rows:     from.sharedRowsLocked(shared),
		},
	}
	tr := from.cfg.Transport
	from.mu.Unlock()
	_ = tr.Send(to, msg)
}

// sharedRowsLocked collects every row of the chain's first `shared`
// tables, root first. When shared is the whole chain everything is sent.
func (a *Agent) sharedRowsLocked(shared int) []wire.RowUpdate {
	total := 0
	for _, zone := range a.chain[:shared] {
		total += len(a.tables[zone].rows)
	}
	out := make([]wire.RowUpdate, 0, total)
	for _, zone := range a.chain[:shared] {
		for _, r := range a.tables[zone].rows {
			out = append(out, r.Update(zone, r.stamp()))
		}
	}
	return out
}
