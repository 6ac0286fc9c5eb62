package newswire

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"newswire/internal/core"
	"newswire/internal/trace"
	"newswire/internal/transport"
	"newswire/internal/vtime"
	"newswire/internal/wire"
)

// Live-node observability defaults: a bounded span ring, so a node that
// runs for months holds constant memory no matter how many items flow
// through it, and a health-digest cadence.
const (
	defaultLiveTraceCap = 4096
	// defaultLiveHealthEvery publishes the node's health digest every
	// this-many gossip ticks (10s at the default 2s interval).
	defaultLiveHealthEvery = 5
)

// LiveConfig configures a node that runs over real TCP with the wall
// clock (cmd/newswired).
type LiveConfig struct {
	// Node is the node configuration. Transport and Clock are filled in
	// by StartLive; Rand defaults to a time-seeded source if nil, and is
	// wrapped so that the node's goroutines can share it. A live node
	// publishes its health digest into the gossip layer and samples its
	// heap, so any member can serve /cluster-health.json for the whole
	// cluster: Node.HealthEvery 0 picks the default cadence, a positive
	// value sets it, and a negative one turns the self-monitoring plane
	// off.
	Node Config
	// ListenAddr is the TCP address to listen on, e.g. "127.0.0.1:0".
	ListenAddr string
	// Peers are addresses of existing cluster members to bootstrap
	// membership from: the node requests their gossip by sending its own
	// chain rows, and normal anti-entropy does the rest.
	Peers []string
	// Transport tunes the TCP data path (per-peer queue length, write
	// timeout, clock-probe interval). The zero value is the recommended
	// default.
	Transport transport.TCPOptions
}

// LiveNode is a running NewsWire node over TCP.
type LiveNode struct {
	node *core.Node
	tr   *transport.TCP
	ring *trace.Ring // nil when Node.Tracer overrides it

	stop chan struct{}
	done chan struct{}
}

// StartLive launches a node: TCP listener, message dispatch, and a gossip
// ticker. Call Close to shut it down.
func StartLive(cfg LiveConfig) (*LiveNode, error) {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	// The listener accepts from here on, and connection goroutines read
	// node while this function is still building it: a node restarting on
	// a known address is gossiped to at once. Frames that arrive before the
	// node exists are dropped, like any frame lost on the way.
	var node atomic.Pointer[core.Node]
	tr, err := transport.ListenTCPWith(cfg.ListenAddr, func(m *wire.Message) {
		if n := node.Load(); n != nil {
			n.HandleMessage(m)
		}
	}, cfg.Transport)
	if err != nil {
		return nil, err
	}

	nodeCfg := cfg.Node
	nodeCfg.Transport = tr
	nodeCfg.Clock = vtime.Real{}
	if nodeCfg.Rand == nil {
		nodeCfg.Rand = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	// A live node draws from several goroutines at once: the gossip ticker,
	// one reader per inbound connection (representative choice, recovery)
	// and whoever calls PublishItem. The draws of a seeded source are
	// unchanged.
	nodeCfg.Rand = rand.New(&lockedSource{src: nodeCfg.Rand})
	// The default ring keeps the last spans for /trace.json; a Node.Tracer
	// replaces it.
	var ring *trace.Ring
	if nodeCfg.Tracer == nil {
		ring = trace.NewRing(defaultLiveTraceCap)
		nodeCfg.Tracer = ring
	}
	if nodeCfg.HealthEvery == 0 {
		nodeCfg.HealthEvery = defaultLiveHealthEvery
	}
	if nodeCfg.HealthEvery > 0 && nodeCfg.HealthHeapBytes == nil {
		nodeCfg.HealthHeapBytes = liveHeapInUse
	}
	if nodeCfg.Name == "" {
		nodeCfg.Name = fmt.Sprintf("node-%s", tr.Addr())
	}
	if nodeCfg.ZonePath == "" {
		nodeCfg.ZonePath = "/default"
	}
	n, err := core.NewNode(nodeCfg)
	if err != nil {
		tr.Close()
		return nil, err
	}
	node.Store(n)

	ln := &LiveNode{
		node: n,
		tr:   tr,
		ring: ring,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}

	// Introduce ourselves to the seed peers: one delta exchange each
	// bootstraps our replicas and theirs. Best effort; the ticker keeps
	// retrying through normal gossip.
	n.IntroduceTo(cfg.Peers...)

	go ln.run(n.GossipInterval())
	return ln, nil
}

func (ln *LiveNode) run(interval time.Duration) {
	defer close(ln.done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			ln.node.Tick()
		case <-ln.stop:
			return
		}
	}
}

// lockedSource serialises a random source shared between goroutines.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

// liveHeapInUse samples the process's heap for the health digest. One
// ReadMemStats per health interval (seconds apart) is negligible.
func liveHeapInUse() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// Node returns the underlying node for subscriptions and publishing.
func (ln *LiveNode) Node() *Node { return ln.node }

// Transport exposes the node's TCP transport (clock offsets, data-path
// stats).
func (ln *LiveNode) Transport() *transport.TCP { return ln.tr }

// TraceRing returns the node's span ring, or nil when Node.Tracer
// replaced it.
func (ln *LiveNode) TraceRing() *trace.Ring { return ln.ring }

// WebUI returns the node's web interface with the trace ring attached,
// so /trace.json serves the recorded spans.
func (ln *LiveNode) WebUI() *WebUI {
	ui := NewWebUI(ln.node)
	ui.ring = ln.ring
	return ui
}

// Addr returns the node's listen address (with the resolved port).
func (ln *LiveNode) Addr() string { return ln.tr.Addr() }

// Close stops the ticker and the transport and waits for shutdown.
func (ln *LiveNode) Close() error {
	close(ln.stop)
	<-ln.done
	return ln.tr.Close()
}
