package core

// Virtual quiescent leaves.
//
// The paper's E1 claim is about reaching "hundreds of thousands of
// subscribers"; the interesting protocol work — gossip, aggregation,
// representative election, multicast routing — happens in the interior
// of the tree and among a handful of active members per leaf zone. A
// quiescent subscriber contributes exactly two things to a run: a leaf
// row (address, load, subscription summary) that shapes aggregation and
// fan-out, and a delivery endpoint that accepts final Deliver copies.
// Neither needs a full Node: a ClusterConfig with VirtualSubjects packs
// every quiescent member into one shared template row plus one bit in a
// per-zone delivery bitset, and materializes a real agent lazily only
// when an experiment needs the member to act (publish, crash, be
// sampled).
//
// Exactness is preserved, not approximated:
//   - The template row carries the same attributes a real quiescent
//     member would advertise (addr, load, subs Bloom), so aggregation
//     and multicast fan-out see the identical zone population. An
//     AttrVirtual marker pins the row from expiry and excludes it from
//     gossip-partner choice — no agent answers at a virtual address.
//   - Delivery accounting is exact: each virtual member has its own
//     network endpoint whose handler acks reliable forwards and runs
//     the leaf's exact-match subject test, then sets the member's bit
//     in a per-(zone, item) bitset. Counting 0→1 transitions mirrors a
//     real node's dedup-then-count ingest path.
//   - Under the parallel executor all of a zone's virtual endpoints are
//     adopted by one sink owner, so their delivery events serialize the
//     same way one node's events do, and acks they send are buffered
//     and committed in canonical order — the serial≡parallel guarantee
//     is untouched.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"newswire/internal/astrolabe"
	"newswire/internal/bloom"
	"newswire/internal/pubsub"
	"newswire/internal/sim"
	"newswire/internal/value"
	"newswire/internal/wire"
)

// virtualZone is the packed representation of one leaf zone's quiescent
// members: a template row per virtual member and a delivery bitset per
// multicast item.
type virtualZone struct {
	zone     string
	firstIdx int // global node index of the zone's first member
	size     int // total members, real + virtual
	owner    int // parallel-executor sink owner (unused when serial)

	// templates[pos] is the shared row standing in for member pos, nil
	// for materialized members; all were issued at construction time.
	templates []*wire.SharedRow
	issued    time.Time
	subjects  map[string]bool

	// mu guards the delivery bitsets. Within a run all of the zone's
	// sink endpoints execute under one owner (or the serial engine), so
	// contention is only with readers totalling results.
	mu        sync.Mutex
	delivered map[string][]uint64 // item key -> member bitset
	count     int64               // total 0→1 transitions
}

func (vz *virtualZone) matches(env *wire.ItemEnvelope) bool {
	for _, s := range env.Subjects {
		if vz.subjects[s] {
			return true
		}
	}
	return false
}

// handler returns the inbound-message handler for the virtual member at
// pos. It emulates exactly the slice of Node.HandleMessage a quiescent
// subscriber exercises: ack reliable multicast forwards (before any
// dedup, like multicast.Router), and record final-delivery copies that
// pass the leaf's exact subject match.
func (vz *virtualZone) handler(pos int, ep *sim.Endpoint) func(*wire.Message) {
	return func(msg *wire.Message) {
		if msg.Kind != wire.KindMulticast || msg.Multicast == nil {
			return
		}
		m := msg.Multicast
		if m.AckSeq != 0 && msg.From != "" {
			_ = ep.Send(msg.From, &wire.Message{
				Kind: wire.KindMulticastAck,
				MulticastAck: &wire.MulticastAck{
					Seq:        m.AckSeq,
					Key:        m.Envelope.Key(),
					TargetZone: m.TargetZone,
				},
			})
		}
		if !m.Deliver {
			// Routing copies target representatives; virtual members
			// always lose representative election (advertised load 1 vs
			// a real member's 0), so none should arrive. Ignore.
			return
		}
		if !vz.matches(&m.Envelope) {
			return
		}
		vz.mu.Lock()
		bits := vz.delivered[m.Envelope.Key()]
		if bits == nil {
			bits = make([]uint64, (vz.size+63)/64)
			vz.delivered[m.Envelope.Key()] = bits
		}
		if bits[pos>>6]&(1<<uint(pos&63)) == 0 {
			bits[pos>>6] |= 1 << uint(pos&63)
			vz.count++
		}
		vz.mu.Unlock()
	}
}

// deliveredAt returns how many items the (possibly former) virtual
// member at pos accepted while virtual.
func (vz *virtualZone) deliveredAt(pos int) int64 {
	vz.mu.Lock()
	defer vz.mu.Unlock()
	var n int64
	for _, bits := range vz.delivered {
		if bits[pos>>6]&(1<<uint(pos&63)) != 0 {
			n++
		}
	}
	return n
}

// deliveredKeys returns (sorted) the keys of every item the member at pos
// accepted while virtual. MaterializeNode seeds the new real node with
// them so delivery accounting stays exact across the phase switch.
func (vz *virtualZone) deliveredKeys(pos int) []string {
	vz.mu.Lock()
	defer vz.mu.Unlock()
	var keys []string
	for key, bits := range vz.delivered {
		if bits[pos>>6]&(1<<uint(pos&63)) != 0 {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys
}

// templateUpdates renders the zone's live template rows for bootstrap
// merging into the zone's real members.
func (vz *virtualZone) templateUpdates() []wire.RowUpdate {
	var out []wire.RowUpdate
	for _, t := range vz.templates {
		if t != nil {
			out = append(out, t.Update(vz.zone, vz.issued))
		}
	}
	return out
}

// virtualSubsBloom builds the shared subscription Bloom filter every
// virtual member advertises. Virtual leaves need ModeBloom (buildNode
// rejects a Customize hook that sets another mode) and assume its default
// geometry.
func virtualSubsBloom(subjects []string) value.Value {
	f := bloom.New(pubsub.DefaultGeometry.Bits, pubsub.DefaultGeometry.Hashes)
	for _, s := range subjects {
		f.Add(s)
	}
	return value.Bytes(f.Bytes())
}

// newVirtualZone packs the members [firstIdx, firstIdx+size) of zone.
func newVirtualZone(zone string, firstIdx, size int, subjects []string, issued time.Time) *virtualZone {
	vz := &virtualZone{
		zone:      zone,
		issued:    issued,
		firstIdx:  firstIdx,
		size:      size,
		owner:     -1,
		templates: make([]*wire.SharedRow, size),
		subjects:  make(map[string]bool, len(subjects)),
		delivered: make(map[string][]uint64),
	}
	for _, s := range subjects {
		vz.subjects[s] = true
	}
	return vz
}

// template builds (and remembers) the row standing in for member pos.
func (vz *virtualZone) template(pos int, name, addr string, subsVal, loadVal, virtVal value.Value) *wire.SharedRow {
	row := &wire.SharedRow{
		Name: name,
		Attrs: value.Map{
			astrolabe.AttrAddr:    value.String(addr),
			astrolabe.AttrLoad:    loadVal,
			astrolabe.AttrSubs:    subsVal,
			astrolabe.AttrVirtual: virtVal,
		},
		Owner: addr,
	}
	vz.templates[pos] = row
	return row
}

// VirtualDelivered returns the total number of items accepted by
// members while they were virtual (each member counts an item once,
// mirroring a real node's dedup-then-count path).
func (c *Cluster) VirtualDelivered() int64 {
	var n int64
	for _, vz := range c.vzones {
		vz.mu.Lock()
		n += vz.count
		vz.mu.Unlock()
	}
	return n
}

// NodeDelivered returns how many items member i has accepted, whether
// it is a real node or a virtual leaf. For a member materialized
// mid-run the two phases sum.
func (c *Cluster) NodeDelivered(i int) int64 {
	var n int64
	if node := c.Nodes[i]; node != nil {
		n = node.Delivered()
	}
	if vz := c.vzoneOf(i); vz != nil {
		n += vz.deliveredAt(i - vz.firstIdx)
	}
	return n
}

// vzoneOf returns the virtual zone covering member i, or nil.
func (c *Cluster) vzoneOf(i int) *virtualZone {
	if c.vzoneByPath == nil {
		return nil
	}
	return c.vzoneByPath[ZonePathFor(i, c.cfg.N, c.cfg.Branching)]
}

// MaterializeNode lazily replaces the virtual leaf i with a real Node:
// the member's endpoint is re-attached to a full agent whose fresh own
// row (no virt marker, current issue time) supersedes the template via
// normal gossip. Call it between rounds, at a deterministic point in
// the run — like any other cluster mutation, determinism is preserved
// only when the call sequence is itself deterministic. The new node is
// not ticked by a StartTicking issued before the call; RunRounds picks
// it up on the next round.
func (c *Cluster) MaterializeNode(i int) (*Node, error) {
	if i < 0 || i >= len(c.Nodes) {
		return nil, fmt.Errorf("core: materialize: node %d out of range", i)
	}
	if c.Nodes[i] != nil {
		return c.Nodes[i], nil
	}
	vz := c.vzoneOf(i)
	if vz == nil {
		return nil, fmt.Errorf("core: materialize: node %d has no virtual zone", i)
	}
	pos := i - vz.firstIdx
	node, err := c.buildNode(i)
	if err != nil {
		return nil, err
	}
	if err := node.Subscribe(c.cfg.VirtualSubjects...); err != nil {
		return nil, fmt.Errorf("core: materialize: node %d: %w", i, err)
	}
	c.Nodes[i] = node
	vz.templates[pos] = nil
	// Items already counted against this member's delivery bitset must not
	// count again if the real node re-ingests them (say, a recovery pass
	// after it later crashes). The bitset stays authoritative for the
	// virtual phase; the node skips those keys in its own accounting.
	node.SeedDeliveredKeys(vz.deliveredKeys(pos))
	// Seed the new node's tables from an established zone peer (member 0
	// of every zone is always real), then push its own row to the zone's
	// real members so the next gossip rounds spread it outward.
	peer := c.Nodes[vz.firstIdx]
	var seeds []wire.RowUpdate
	for _, zone := range peer.agent.Chain() {
		rows, ok := peer.agent.Table(zone)
		if !ok {
			continue
		}
		for _, r := range rows {
			seeds = append(seeds, wire.RowUpdate{
				Zone: zone, Name: r.Name, Attrs: r.Attrs,
				Issued: r.Issued, Owner: r.Owner,
				Signer: r.Signer, Sig: r.Sig,
			})
		}
	}
	node.agent.MergeRows(seeds)
	own := []wire.RowUpdate{node.agent.OwnRowUpdate()}
	for p := 0; p < vz.size; p++ {
		if m := c.Nodes[vz.firstIdx+p]; m != nil && m != node {
			m.agent.MergeRows(own)
		}
	}
	return node, nil
}
