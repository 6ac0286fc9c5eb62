package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"newswire"
)

// sim_churn runs the control plane at a scale loopback cannot: 1,024
// simulated nodes under continuous churn. Latency and bytes are virtual
// and repeat exactly for a seed; throughput is simulated items per second
// of wall time.
const (
	simChurnName  = "sim_churn"
	simNodes      = 1024
	simBranching  = 16
	simGossip     = 2 * time.Second
	simItemGap    = 500 * time.Millisecond
	simPublishers = 16
	simBootRounds = 10
	// churnEvery and churnDown: at every churnEvery-th item one random
	// non-publisher crashes, and the victim of churnDown steps ago comes
	// back and asks a zone peer for what it missed.
	churnEvery = 4
	churnDown  = 3
	// simItems is the number of items at nominalSeconds, split into
	// simSegments equal segments; items_per_s is the median segment.
	simItems    = 480
	simSegments = 8
	// recoveryReach is how far before its crash a returning victim asks for
	// items.
	recoveryReach = 10 * time.Second
	// simDrain is the virtual time after the last item in which the last
	// victims return and recover; a delivery still missing then is failed.
	simDrain = 40 * time.Second
)

// simPublisher spreads the publishers over the leaf zones.
func simPublisher(k int) int { return k * (simNodes / simPublishers) }

type simCluster struct {
	*newswire.Cluster
	book func(node int, it *newswire.Item) // nil drops deliveries
}

func setupSim(in *input, seed int64, traced bool) (*simCluster, time.Duration, error) {
	t0 := time.Now()
	sc := &simCluster{}
	c, err := newswire.NewCluster(newswire.ClusterConfig{
		N:              simNodes,
		Branching:      simBranching,
		Link:           newswire.DefaultWAN,
		Seed:           seed,
		GossipInterval: simGossip,
		Trace:          traced,
		Customize: func(i int, cfg *newswire.Config) {
			cfg.AckTimeout = time.Second
			cfg.AntiEntropyEvery = 3
			cfg.OnItem = func(it *newswire.Item, _ *newswire.ItemEnvelope) {
				if sc.book != nil {
					sc.book(i, it)
				}
			}
		},
	})
	if err != nil {
		return nil, 0, err
	}
	sc.Cluster = c
	for i, n := range c.Nodes {
		if err := n.Subscribe(in.subjects[i]...); err != nil {
			return nil, 0, err
		}
	}
	c.RunRounds(simBootRounds)
	return sc, time.Since(t0), nil
}

// simResult is one pass over the churn schedule.
type simResult struct {
	tally
	segWall       []float64 // wall seconds at the end of each segment
	virtual       time.Duration
	wall          time.Duration
	bytes         int64
	crashes       int
	before, after counters
	fired         uint64  // simulator events
	publishNs     []int64 // how long each PublishItem call took
	ledger        *ledger // kept for the traced run's span file
}

// churnSchedule publishes items [0, n) one per simItemGap of virtual time
// while nodes crash and return.
func (sc *simCluster) churnSchedule(in *input, seed int64, n int) (simResult, error) {
	var res simResult
	l, err := newLedger(simNodes, 0, in.hashes[:n], in.want, 0)
	if err != nil {
		return res, err
	}
	epoch := sc.Eng.Now()
	sc.book = func(node int, it *newswire.Item) {
		if g, ok := itemIndex(it.ID); ok {
			l.deliver(g, node, int64(sc.Eng.Now().Sub(epoch)), it.Body)
		}
	}
	sc.StartTicking()
	defer sc.StopTicking()

	isPublisher := make(map[int]bool, simPublishers)
	for k := 0; k < simPublishers; k++ {
		isPublisher[simPublisher(k)] = true
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var down []int // victims, oldest first
	crashedAt := make(map[int]time.Time)
	// restore brings the oldest victim back and has it recover what it
	// missed: by the product's own RecoverFromZonePeer, and by a state
	// transfer from the next live member of its zone. The first asks three
	// candidates picked at random from zone members and the representatives
	// of every sibling zone, most of which do not share the victim's
	// subscriptions and answer with nothing; the second is what makes the
	// workload one on which no delivery stays missing. It reaches back
	// recoveryReach before the crash, for items that were still on their way
	// (a retried forward can take 7 s) when the victim went down.
	restore := func() error {
		v := down[0]
		down = down[1:]
		sc.Net.Restore(sc.Nodes[v].Addr())
		_ = sc.Nodes[v].RecoverFromZonePeer(2 * n) // errs only with no candidates; the directed request below still runs
		zone := v / simBranching * simBranching
		for k := 1; k < simBranching; k++ {
			peer := sc.Nodes[zone+(v-zone+k)%simBranching]
			if !sc.Net.Crashed(peer.Addr()) {
				return sc.Nodes[v].RequestStateTransfer(peer.Addr(), crashedAt[v].Add(-recoveryReach), 2*n)
			}
		}
		return fmt.Errorf("node %d has no live zone peer to recover from", v)
	}

	res.before = readCounters(sc.Nodes)
	eventsBefore := sc.Eng.Stats().Fired
	bytesBefore, _ := sc.Net.BytesTotals()
	segItems := n / simSegments
	wall0 := time.Now()
	for i := 0; i < n; i++ {
		if i%churnEvery == 0 {
			v := rng.Intn(simNodes)
			for isPublisher[v] || sc.Net.Crashed(sc.Nodes[v].Addr()) {
				v = rng.Intn(simNodes)
			}
			sc.Net.Crash(sc.Nodes[v].Addr())
			crashedAt[v] = sc.Eng.Now()
			down = append(down, v)
			res.crashes++
			if len(down) > churnDown {
				if err := restore(); err != nil {
					return res, err
				}
			}
		}
		it := in.items[i]
		it.Published = sc.Eng.Now()
		l.due[i].Store(int64(it.Published.Sub(epoch)))
		t0 := time.Now()
		if err := sc.Nodes[simPublisher(i%simPublishers)].PublishItem(it, "", ""); err != nil {
			return res, err
		}
		res.publishNs = append(res.publishNs, int64(time.Since(t0)))
		sc.RunFor(simItemGap)
		if (i+1)%segItems == 0 {
			res.segWall = append(res.segWall, time.Since(wall0).Seconds())
		}
	}
	res.wall = time.Since(wall0)
	res.virtual = sc.Eng.Now().Sub(epoch)
	bytesAfter, _ := sc.Net.BytesTotals()
	res.bytes = bytesAfter - bytesBefore
	res.after = readCounters(sc.Nodes)
	res.fired = sc.Eng.Stats().Fired - eventsBefore

	for len(down) > 0 {
		if err := restore(); err != nil {
			return res, err
		}
	}
	sc.RunFor(simDrain)
	sc.book = nil
	res.tally, res.ledger = l.close(), l
	return res, nil
}

func simItemCount(seconds float64, traced bool) int {
	scale := seconds / nominalSeconds
	if traced {
		scale /= 2
	}
	per := int(float64(simItems)/simSegments*scale + 0.5)
	if per < churnEvery {
		per = churnEvery
	}
	return per * simSegments
}

func runSim(seed int64, seconds float64, log io.Writer) (*outcome, error) {
	t0 := time.Now()
	n := simItemCount(seconds, false)
	in, err := genSim(seed, simNodes, n)
	if err != nil {
		return nil, err
	}
	genTime := time.Since(t0)
	var sc *simCluster
	var setupTimes []float64
	for k := 0; k < setups; k++ {
		sc = nil
		runtime.GC() // every set-up starts from the same heap, not from its predecessor's garbage
		var d time.Duration
		if sc, d, err = setupSim(in, seed, false); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
	}
	setup := genTime + time.Duration(median(setupTimes)*float64(time.Second))
	fmt.Fprintf(log, "%s: generated %d items in %v; cluster set-ups %.3f s\n", simChurnName, n, genTime.Round(time.Millisecond), setupTimes)

	res, err := sc.churnSchedule(in, seed, n)
	if err != nil {
		return nil, err
	}
	m := costs(res.before, res.after, n, res.bytes)
	m["setup_s"] = metric{setup.Seconds(), "s"}
	diag, samples, err := timings(res.deliverMs, res.doneMs, res.segWall, n/simSegments)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%s: %d items over %v virtual in %v wall, %d crashes; missing %d duplicate %d stray %d corrupt %d\n",
		simChurnName, n, res.virtual, res.wall.Round(time.Millisecond), res.crashes, res.missing, res.duplicate, res.stray, res.corrupt)
	t := res.tally
	in.items, in.hashes = nil, nil
	res = simResult{}
	m["live_heap_mb"] = metric{liveHeapMB(), "MB"}
	runtime.KeepAlive(sc) // the cluster stays reachable until the heap is read
	return &outcome{
		workload:  simChurnName,
		metrics:   m,
		diag:      diag,
		samples:   samples,
		attempted: t.ops,
		failed:    t.failed(),
		corrupt:   t.corrupt,
	}, nil
}
