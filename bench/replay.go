package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"newswire"
	"newswire/internal/astrolabe"
	"newswire/internal/bloom"
	"newswire/internal/cache"
	"newswire/internal/cert"
	"newswire/internal/metrics"
	"newswire/internal/multicast"
	"newswire/internal/news"
	"newswire/internal/pubsub"
	"newswire/internal/query"
	"newswire/internal/trace"
	"newswire/internal/transport"
	"newswire/internal/value"
	"newswire/internal/vtime"
	"newswire/internal/wire"
)

// The stage replay feeds the run's own generated items through each
// layer's public functions in isolation, from outside the layer, and
// reports the cost of one call. Each stage is timed over replayBatches
// batches of at least replayCalls calls and the median batch is reported.
const (
	replayCalls   = 1000
	replayBatches = 5
)

// replayInput is what the replay takes from the measured run.
type replayInput struct {
	mode  newswire.Mode
	items []*newswire.Item // replayCalls generated items of the workload
	// view is a node of the measured cluster, still running: the replay
	// routes against its real zone tables.
	view *newswire.Node
	// subjects and queries are the subscriptions of view.
	subjects []string
	queries  []string
	// gossip builds a small simulated cluster subscribed like the workload,
	// for the cost of a gossip round.
	gossipNodes, gossipBranching int
	subscribeSim                 func(i int, n *newswire.Node) error
}

// stage runs batch replayBatches times; batch does its own set-up and
// returns how long its timed calls took. The result is the median cost of
// one call in nanoseconds.
func stage(calls int, batch func() (time.Duration, error)) (float64, error) {
	per := make([]float64, replayBatches)
	for b := range per {
		d, err := batch()
		if err != nil {
			return 0, err
		}
		per[b] = float64(d) / float64(calls)
	}
	return median(per), nil
}

// loop is a batch that needs no set-up: it times one call per item.
func loop(n int, call func(i int) error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := call(i); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
}

// nullTransport swallows sends. It does not implement FrameSender, so a
// router on it routes without encoding — encoding is its own stage.
type nullTransport struct{}

func (nullTransport) Addr() string                     { return "replay" }
func (nullTransport) Send(string, *wire.Message) error { return nil }
func (nullTransport) Close() error                     { return nil }

// replayStages returns the per-call cost of every replayed stage, keyed by
// per-layer metric name, in the unit the name ends in.
func replayStages(in replayInput) (map[string]float64, error) {
	out := make(map[string]float64)
	n := len(in.items)
	if n < replayCalls {
		return nil, fmt.Errorf("replay needs %d items, has %d", replayCalls, n)
	}
	geo := pubsub.DefaultGeometry
	// set times one stage. The first failure sticks and the stages after it
	// are skipped; it is returned at the end.
	var failed error
	set := func(name string, scale float64, calls int, batch func() (time.Duration, error)) {
		if failed != nil {
			return
		}
		ns, err := stage(calls, batch)
		if err != nil {
			failed = fmt.Errorf("replay %s: %w", name, err)
			return
		}
		out[name] = ns / scale
	}
	const us, ns = 1e3, 1.0

	// news
	payloads := make([][]byte, n)
	set("news.marshal_us", us, n, loop(n, func(i int) (err error) {
		payloads[i], err = news.MarshalNITF(in.items[i])
		return err
	}))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	set("news.unmarshal_us", us, n, loop(n, func(i int) error {
		_, err := news.UnmarshalNITF(payloads[i])
		return err
	}))
	runtime.ReadMemStats(&ms1)
	out["news.unmarshal_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n*replayBatches)

	// pubsub
	envs := make([]wire.ItemEnvelope, n)
	set("pubsub.encode_item_us", us, n, loop(n, func(i int) (err error) {
		envs[i], err = pubsub.EncodeItem(in.items[i], in.mode, geo, nil)
		envs[i].ScopeZone = astrolabe.RootZone
		return err
	}))
	set("pubsub.decode_item_us", us, n, loop(n, func(i int) error {
		_, err := pubsub.DecodeItem(&envs[i])
		return err
	}))
	// detached builds a node wired to nothing, subscribed like view.
	detached := func() (*newswire.Node, error) {
		node, err := newswire.NewNode(newswire.Config{
			Name: "replay", ZonePath: in.view.ZonePath(), Transport: nullTransport{},
			Clock: newswire.RealClock, Rand: rand.New(rand.NewSource(1)), Mode: in.mode,
			OnItem: func(*newswire.Item, *newswire.ItemEnvelope) {},
		})
		if err != nil {
			return nil, err
		}
		for _, q := range in.queries {
			if _, err := node.SubscribeQuery(q); err != nil {
				return nil, err
			}
		}
		if len(in.subjects) > 0 {
			if err := node.Subscribe(in.subjects...); err != nil {
				return nil, err
			}
		}
		return node, nil
	}
	host, err := detached()
	if err != nil {
		return nil, err
	}
	sub, err := pubsub.NewSubscriber(pubsub.Config{Agent: host.Agent(), Mode: in.mode})
	if err != nil {
		return nil, err
	}
	for _, q := range in.queries {
		if _, err := sub.SubscribeQuery(q); err != nil {
			return nil, err
		}
	}
	if len(in.subjects) > 0 {
		if err := sub.Subscribe(in.subjects...); err != nil {
			return nil, err
		}
	}
	set("pubsub.should_deliver_ns", ns, n, loop(n, func(i int) error {
		sub.ShouldDeliver(&envs[i])
		return nil
	}))
	rootRows, ok := in.view.Agent().Table(astrolabe.RootZone)
	if !ok || len(rootRows) == 0 {
		return nil, fmt.Errorf("replay: view has no root table")
	}
	filter := pubsub.ForwardFilter(in.mode, geo, nil)
	set("pubsub.forward_filter_ns", ns, n*len(rootRows), loop(n, func(i int) error {
		for _, row := range rootRows {
			filter(astrolabe.RootZone, row, &envs[i])
		}
		return nil
	}))

	// query, bloom
	queries := in.queries
	if len(queries) == 0 {
		for _, s := range in.subjects {
			queries = append(queries, fmt.Sprintf("subjects = '%s' AND urgency <= 5", s))
		}
	}
	sigs := make([]query.Signature, len(queries))
	set("query.compile_us", us, n, loop(n, func(i int) error {
		p, err := query.Parse(queries[i%len(queries)])
		if err != nil {
			return err
		}
		sigs[i%len(queries)] = p.Compile()
		return nil
	}))
	f := bloom.New(geo.Bits, geo.Hashes)
	for _, s := range sigs {
		s.Fill(f)
	}
	set("bloom.test_ns", ns, n, loop(n, func(i int) error {
		f.TestPositions(envs[i].SubjectBits)
		return nil
	}))
	snapshot := f.Bytes()
	acc := bloom.New(geo.Bits, geo.Hashes)
	set("bloom.merge_ns", ns, n, loop(n, func(int) error { return acc.MergeBytes(snapshot) }))
	// Two signature sets of one filter per query each, split in halves:
	// the shape two sibling rows hand the zone aggregation.
	var halves [2][][]byte
	for i, s := range sigs {
		one := bloom.New(geo.Bits, geo.Hashes)
		s.Fill(one)
		halves[i%2] = append(halves[i%2], one.Bytes())
	}
	setA := bloom.EncodeSignatureSet(pubsub.DefaultSubgroupK, halves[0])
	setB := bloom.EncodeSignatureSet(pubsub.DefaultSubgroupK, halves[1])
	set("bloom.sigset_merge_ns", ns, n, loop(n, func(int) error {
		bloom.MergeSignatureSets(setA, setB)
		return nil
	}))

	// cert
	authority, err := cert.GenerateKeyPair(nil)
	if err != nil {
		return nil, err
	}
	pubKey, err := cert.GenerateKeyPair(nil)
	if err != nil {
		return nil, err
	}
	store := cert.NewStore()
	now := time.Now()
	store.Add(cert.Issue("authority", authority, "wire0", cert.RolePublisher, pubKey.Public, now.Add(time.Hour)))
	blobs := make([]cert.SignedBlob, n)
	set("cert.sign_us", us, n, loop(n, func(i int) error {
		blobs[i] = cert.SignBlob("wire0", pubKey, envs[i].SignedPayload())
		return nil
	}))
	set("cert.verify_us", us, n, loop(n, func(i int) error {
		return store.VerifySigned(blobs[i], envs[i].SignedPayload(), authority.Public, now, cert.RolePublisher)
	}))

	// wire
	msgs := make([]*wire.Message, n)
	for i := range msgs {
		msgs[i] = &wire.Message{Kind: wire.KindMulticast, Multicast: &wire.Multicast{
			TargetZone: astrolabe.RootZone, Hops: 1, Deliver: true,
			TraceID: trace.DeriveTraceID(envs[i].Key()), Envelope: envs[i],
		}}
	}
	frames := make([]wire.Frame, n)
	set("wire.encode_multicast_us", us, n, loop(n, func(i int) (err error) {
		frames[i], err = wire.NewFrame(msgs[i], "127.0.1.1:17400")
		return err
	}))
	set("wire.decode_multicast_us", us, n, loop(n, func(i int) error {
		_, err := wire.Decode(frames[i].Payload())
		return err
	}))
	total := 0
	for _, fr := range frames {
		total += fr.Len()
	}
	out["wire.frame_bytes"] = float64(total) / float64(n)

	// transport: the cost of handing a frame to a peer's queue. The queue
	// holds 1,024 frames, so a batch is replayCalls frames and the next
	// batch starts only when the receiver has them all.
	var got atomic.Int64
	arrived := make(chan struct{}, 1)
	rx, err := transport.ListenTCP("127.0.0.1:0", func(*wire.Message) {
		if got.Add(1)%replayCalls == 0 {
			arrived <- struct{}{}
		}
	})
	if err != nil {
		return nil, err
	}
	defer rx.Close()
	tx, err := transport.ListenTCP("127.0.0.1:0", func(*wire.Message) {})
	if err != nil {
		return nil, err
	}
	defer tx.Close()
	set("transport.enqueue_ns", ns, replayCalls, func() (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < replayCalls; i++ {
			if err := tx.SendFrame(rx.Addr(), frames[i]); err != nil {
				return 0, err
			}
		}
		d := time.Since(t0)
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			return 0, fmt.Errorf("receiver got %d of %d frames", got.Load()%replayCalls, replayCalls)
		}
		return d, nil
	})

	// multicast: routing decisions at the publisher against the measured
	// cluster's real tables, sends swallowed.
	set("multicast.route_us", us, n, func() (time.Duration, error) {
		router, err := multicast.NewRouter(multicast.Config{
			View: in.view.Agent(), Transport: nullTransport{}, Rand: rand.New(rand.NewSource(1)),
			Filter: filter, Deliver: func(*wire.ItemEnvelope) {},
		})
		if err != nil {
			return 0, err
		}
		return loop(n, func(i int) error { return router.Publish(envs[i], "") })()
	})

	// cache: puts into a full cache, so each one evicts.
	set("cache.put_us", us, n, func() (time.Duration, error) {
		c, err := cache.New(cache.Config{Clock: vtime.Real{}})
		if err != nil {
			return 0, err
		}
		for i := 0; i < 1024; i++ {
			c.Put(wire.ItemEnvelope{Publisher: "fill", ItemID: fmt.Sprintf("f%d", i), Subjects: envs[0].Subjects})
		}
		return loop(n, func(i int) error { c.Put(envs[i]); return nil })()
	})

	// core: a deliver-copy through a whole detached node — exact match,
	// cache, latency sample, payload decode, application callback.
	set("core.handle_deliver_us", us, n, func() (time.Duration, error) {
		node, err := detached() // a fresh one per batch: a node takes an item once
		if err != nil {
			return 0, err
		}
		return loop(n, func(i int) error { node.HandleMessage(msgs[i]); return nil })()
	})

	// astrolabe, sqlagg
	sim, err := newswire.NewCluster(newswire.ClusterConfig{
		N: in.gossipNodes, Branching: in.gossipBranching, Seed: 1,
		Customize: func(_ int, cfg *newswire.Config) { cfg.Mode = in.mode },
	})
	if err != nil {
		return nil, err
	}
	for i, node := range sim.Nodes {
		if err := in.subscribeSim(i, node); err != nil {
			return nil, err
		}
	}
	sim.RunRounds(5)
	const rounds = 20
	set("astrolabe.tick_us", us, rounds*in.gossipNodes, func() (time.Duration, error) {
		t0 := time.Now()
		sim.RunRounds(rounds)
		return time.Since(t0), nil
	})
	leafRows, _ := in.view.Agent().Table(in.view.ZonePath())
	attrs := make([]value.Map, len(leafRows))
	for i, r := range leafRows {
		attrs[i] = r.Attrs
	}
	prog := astrolabe.DefaultAggregation()
	set("sqlagg.eval_us", us, n, loop(n, func(int) error {
		_, err := prog.Eval(attrs)
		return err
	}))

	// metrics, trace
	h := &metrics.Histogram{}
	h.SetReservoir(8192)
	set("metrics.observe_ns", ns, n, loop(n, func(i int) error { h.Observe(float64(i)); return nil }))
	ring := trace.NewRing(0)
	span := trace.Span{Kind: trace.KindForward, Key: envs[0].Key(), TraceID: 1, Node: "a", To: "b", At: now}
	set("trace.record_ns", ns, n, loop(n, func(int) error { ring.Record(span); return nil }))
	return out, failed
}
