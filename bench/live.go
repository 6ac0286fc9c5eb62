package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"newswire"
)

// The live topology is the same on every run: 16 nodes in one process over
// real loopback TCP, four leaf zones of four members under two regions, so
// an item crosses two zone levels above the leaves. Addresses are fixed
// because representative election breaks load ties by address string; a
// port from the ephemeral range would elect different forwarders each run.
const (
	// gossipInterval is ten times the product default's frequency, so that
	// set-up is short. It is not shorter still because gossip is background
	// load on the two vCPUs the deliveries need: at 100 ms, verifying the
	// signed rows of 16 nodes alone took a fifth of them.
	gossipInterval = 200 * time.Millisecond
	// settleRounds is how many gossip intervals pass between the last node
	// start and the readiness probe. Convergence takes 3 to 5 rounds and is
	// quantised to them; waiting a fixed 13 keeps that quantisation out of
	// setup_s, and the probe still fails the run if the cluster is not
	// ready by then.
	settleRounds = 13
	probeTimeout = 10 * time.Second
)

// topology lays nodes out in leaf zones of `members` under two regions.
type topology struct {
	nodes, members, port int
}

// benchTopology is what every live workload runs on.
var benchTopology = topology{nodes: 16, members: 4, port: 17400}

func (t topology) zone(node int) string {
	z := node / t.members
	return fmt.Sprintf("/r%d/z%d", z/2, z%2)
}

func (t topology) addr(node int) string { return fmt.Sprintf("127.0.1.%d:%d", node+1, t.port) }

// peers is the bootstrap rule: a node introduces itself to the first
// member of every leaf zone started before it, and to the first member of
// its own zone. One remote seed is not enough — gossip with a foreign zone
// never reveals a third zone's leaf table, and sibling zones stay
// unmerged.
func (t topology) peers(node int) []string {
	var peers []string
	for first := 0; first < node; first += t.members {
		peers = append(peers, t.addr(first))
	}
	return peers
}

// publisher is the node that publishes for publisher k: the first member
// of leaf zone k, so the four publishers sit in the four zones.
func (t topology) publisher(k int) int { return k * t.members }

// liveCluster is a running topology plus the hook that books deliveries.
type liveCluster struct {
	topo  topology
	nodes []*newswire.LiveNode
	// book receives every application delivery: (node, item, arrival).
	// It is swapped between phases; nil drops deliveries.
	book atomic.Pointer[func(node int, it *newswire.Item, at time.Time)]
}

type liveOptions struct {
	topo   topology
	mode   newswire.Mode
	secure bool
	seed   int64
	tracer func(node int) newswire.TraceRecorder // nil keeps the product's default ring
}

// startLive starts the nodes in index order and subscribes each as it
// comes up. It returns the instant the last node was ready.
func startLive(in *input, opt liveOptions) (*liveCluster, time.Time, error) {
	t := opt.topo
	c := &liveCluster{topo: t}
	var secs []*newswire.Security
	if opt.secure {
		// Every identity is minted before the first node starts: the
		// realm's certificate store is read without a lock once nodes run.
		realm, err := newswire.NewRealm(newswire.RealClock, 24*time.Hour)
		if err != nil {
			return nil, time.Time{}, err
		}
		for i := 0; i < t.nodes; i++ {
			sec, err := realm.Member(fmt.Sprintf("n%02d", i))
			if err != nil {
				return nil, time.Time{}, err
			}
			secs = append(secs, sec)
		}
		for k := 0; k < publishers; k++ {
			if err := realm.Publisher(secs[t.publisher(k)], pubName(k)); err != nil {
				return nil, time.Time{}, err
			}
		}
	}
	for i := 0; i < t.nodes; i++ {
		i := i
		cfg := newswire.Config{
			Name:           fmt.Sprintf("n%02d", i),
			ZonePath:       t.zone(i),
			Rand:           newLockedRand(opt.seed*1000 + int64(i)),
			GossipInterval: gossipInterval,
			Mode:           opt.mode,
			OnItem: func(it *newswire.Item, _ *newswire.ItemEnvelope) {
				at := time.Now()
				if f := c.book.Load(); f != nil {
					(*f)(i, it, at)
				}
			},
		}
		if opt.secure {
			cfg.Security = secs[i]
		}
		if opt.tracer != nil {
			cfg.Tracer = opt.tracer(i)
		}
		ln, err := newswire.StartLive(newswire.LiveConfig{
			Node:       cfg,
			ListenAddr: t.addr(i),
			Peers:      t.peers(i),
		})
		if err != nil {
			c.close()
			return nil, time.Time{}, fmt.Errorf("start node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, ln)
		for _, q := range in.queries[i] {
			if _, err := ln.Node().SubscribeQuery(q); err != nil {
				c.close()
				return nil, time.Time{}, fmt.Errorf("node %d subscribe %q: %w", i, q, err)
			}
		}
		if subj := in.subjects[i]; len(subj) > 0 {
			if err := ln.Node().Subscribe(subj...); err != nil {
				c.close()
				return nil, time.Time{}, fmt.Errorf("node %d subscribe: %w", i, err)
			}
		}
	}
	return c, time.Now(), nil
}

// close stops every node and waits for its goroutines.
func (c *liveCluster) close() {
	c.book.Store(nil)
	for _, ln := range c.nodes {
		_ = ln.Close() // listener close error on shutdown changes nothing
	}
	c.nodes = nil
}

// publish hands item g to its publisher's node.
func (c *liveCluster) publish(it *newswire.Item, g int) error {
	return c.nodes[c.topo.publisher(g%publishers)].Node().PublishItem(it, "", "")
}
