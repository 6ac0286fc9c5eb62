// Package newswire is the public API of the NewsWire collaborative news
// delivery infrastructure — a reproduction of "A Collaborative
// Infrastructure for Scalable and Robust News Delivery" (Vogels, Re,
// van Renesse, Birman; ICDCS Workshops 2002).
//
// A NewsWire deployment is a peer-to-peer publish/subscribe network built
// on an Astrolabe-style gossip hierarchy: every participant runs the same
// node, which is simultaneously an Astrolabe leaf agent, a multicast
// forwarding component, a subscriber with a Bloom-filter subscription
// summary, and an end-system message cache. Publishers are ordinary nodes
// holding a publisher certificate.
//
// Two ways to run a node:
//
//   - Simulated: NewCluster builds N nodes on a deterministic
//     discrete-event network in one process (virtual time, latency/loss
//     models, failure injection). All experiments in EXPERIMENTS.md run
//     this way.
//   - Live: StartLive runs one node over TCP with a real clock; see
//     cmd/newswired.
//
// Quick start (simulated):
//
//	cluster, err := newswire.NewCluster(newswire.ClusterConfig{N: 32, Seed: 1})
//	...
//	cluster.Nodes[1].Subscribe("tech/linux")
//	cluster.RunRounds(10)
//	cluster.Nodes[0].PublishItem(item, "", "")
//	cluster.RunFor(10 * time.Second)
package newswire

import (
	"time"

	"newswire/internal/astrolabe"
	"newswire/internal/core"
	"newswire/internal/news"
	"newswire/internal/pubsub"
	"newswire/internal/sim"
	"newswire/internal/trace"
	"newswire/internal/vtime"
	"newswire/internal/wire"
)

// Core node and cluster types.
type (
	// Node is one NewsWire participant: subscriber, forwarder, cache
	// and (optionally) publisher in a single application.
	Node = core.Node
	// Config configures a Node.
	Config = core.Config
	// Cluster is a simulated multi-node deployment.
	Cluster = core.Cluster
	// ClusterConfig configures a simulated deployment.
	ClusterConfig = core.ClusterConfig
	// ItemHandler receives delivered news items.
	ItemHandler = core.ItemHandler
	// Security wires certificates into a node.
	Security = core.Security
	// Realm is a convenience certificate authority for tests/examples.
	Realm = core.Realm
)

// News model types.
type (
	// Item is one news item revision with its NITF-like metadata.
	Item = news.Item
	// ItemEnvelope is the wire form of a published item.
	ItemEnvelope = wire.ItemEnvelope
)

// Subscription-summary modes (paper §6–7).
type Mode = pubsub.Mode

// Subscription summary representations.
const (
	// ModeBloom is the paper's Bloom-filter design (§6).
	ModeBloom = pubsub.ModeBloom
	// ModePredicate is the §7 target design: typed SQL predicates
	// compiled to sound Bloom signatures, with zone subgrouping.
	ModePredicate = pubsub.ModePredicate
)

// ParseMode maps a mode name ("bloom", "predicate") to its Mode; empty
// selects ModeBloom.
func ParseMode(name string) (Mode, error) { return pubsub.ParseMode(name) }

// Geometry fixes the shared Bloom filter shape.
type Geometry = pubsub.Geometry

// LinkModel describes simulated network links.
type LinkModel = sim.LinkModel

// DefaultWAN is a 2002-era wide-area link model (20–180 ms, 1% loss).
var DefaultWAN = sim.DefaultWAN

// RootZone is the path of the root zone ("/").
const RootZone = astrolabe.RootZone

// StandardSubjects is the default subscription-subject vocabulary.
var StandardSubjects = news.StandardSubjects

// NewNode assembles a single node from cfg.
func NewNode(cfg Config) (*Node, error) { return core.NewNode(cfg) }

// NewCluster builds a bootstrapped simulated deployment.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return core.NewCluster(cfg) }

// NewRealm creates a certificate authority whose Member and Publisher
// methods mint node and publisher identities with the given certificate
// lifetime.
func NewRealm(clock vtime.Clock, ttl time.Duration) (*Realm, error) {
	return core.NewRealm(clock, ttl)
}

// Clock is the time source abstraction shared by live and simulated runs.
type Clock = vtime.Clock

// RealClock is the wall clock, for live nodes.
var RealClock Clock = vtime.Real{}

// Delivery tracing types (see internal/trace): spans explain a single
// item's hop-by-hop journey; recorders plug into Config.Tracer.
type (
	// TraceSpan is one recorded delivery event.
	TraceSpan = trace.Span
	// TraceRecorder receives spans (nil on a Config disables tracing).
	TraceRecorder = trace.Recorder
	// TraceRing is the bounded span recorder live nodes use.
	TraceRing = trace.Ring
	// TraceCollector is the deterministic recorder simulated clusters use.
	TraceCollector = trace.Collector
)

// NewTraceRing returns a bounded live-node span recorder (cap <= 0
// selects the default capacity).
func NewTraceRing(cap int) *TraceRing { return trace.NewRing(cap) }
