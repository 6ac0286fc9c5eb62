package main

import (
	"fmt"
	"io"
	"path/filepath"

	"newswire"
	"newswire/internal/trace"
)

// perLayer lists every per-layer metric the traced run prints, with its
// unit. BENCHMARK.json carries the same list; a test keeps them equal.
var perLayer = []struct{ name, unit string }{
	{"items_per_s", "1/s"},
	{"deliver_p50_ms", "ms"},
	{"deliver_p90_ms", "ms"},
	{"complete_p50_ms", "ms"},
	{"news.marshal_us", "us"},
	{"news.unmarshal_us", "us"},
	{"news.unmarshal_allocs", "count"},
	{"pubsub.encode_item_us", "us"},
	{"pubsub.decode_item_us", "us"},
	{"pubsub.should_deliver_ns", "ns"},
	{"pubsub.forward_filter_ns", "ns"},
	{"pubsub.false_positive_ratio", "ratio"},
	{"query.compile_us", "us"},
	{"bloom.test_ns", "ns"},
	{"bloom.merge_ns", "ns"},
	{"bloom.sigset_merge_ns", "ns"},
	{"cert.sign_us", "us"},
	{"cert.verify_us", "us"},
	{"cert.verifies_per_item", "count"},
	{"wire.encode_multicast_us", "us"},
	{"wire.decode_multicast_us", "us"},
	{"wire.frame_bytes", "B"},
	{"wire.gossip_kb_per_node_round", "KB"},
	{"transport.enqueue_ns", "ns"},
	{"transport.frames_per_item", "count"},
	{"transport.batch_frames_mean", "count"},
	{"transport.queue_high_water", "count"},
	{"transport.queue_full_drops", "count"},
	{"transport.conn_drops", "count"},
	{"multicast.route_us", "us"},
	{"multicast.forwards_per_item", "count"},
	{"multicast.duplicates_per_item", "count"},
	{"multicast.filtered_per_item", "count"},
	{"multicast.hop_wait_p50_us", "us"},
	{"cache.put_us", "us"},
	{"cache.evictions_per_item", "count"},
	{"core.publish_us", "us"},
	{"core.handle_deliver_us", "us"},
	{"astrolabe.tick_us", "us"},
	{"astrolabe.rows_merged_per_round", "count"},
	{"astrolabe.agg_evals_per_round", "count"},
	{"sqlagg.eval_us", "us"},
	{"metrics.observe_ns", "ns"},
	{"trace.record_ns", "ns"},
	{"sim.events_per_s", "1/s"},
	{"sim.wall_per_virtual_s", "ratio"},
	{"proc.cpu_us_per_item", "us"},
	{"proc.gc_cpu_share", "ratio"},
	{"proc.peak_heap_mb", "MB"},
	{"bench.deliver_p99_ms", "ms"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.ledger_coverage", "ratio"},
}

// tailOrMax is the diagnostic form of a high percentile: the percentile
// when enough samples lie beyond it, otherwise the largest sample, which
// errs on the pessimistic side.
func tailOrMax(sorted []float64, p float64) float64 {
	if v, err := percentile(sorted, p); err == nil {
		return v
	}
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)-1]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// phaseCounts is the difference of two counter readings over a phase that
// completed `items` items among `nodes` nodes ticking every `interval`.
type phaseCounts struct {
	before, after counters
	items         int
	nodes         int
	rounds        float64 // gossip rounds the phase lasted
	deliveries    float64 // expected deliveries per item
	secure        bool
}

// layerInputs is everything the per-layer table is computed from.
type layerInputs struct {
	stages     map[string]float64 // replayStages
	timings    map[string]metric  // the untraced arm's wall-clock metrics
	load       phaseCounts        // the untraced arm's saturated phase: per-item counts and process cost
	open       phaseCounts        // the untraced arm's open loop: queue and drop counters (zero value in sim)
	paths      pathStats          // the traced arm's spans
	publishUs  float64            // median PublishItem call
	p99Ms      float64            // untraced open-loop delivery p99
	lateP99Ms  float64
	traced     float64 // items/s of the traced arm
	peakHeap   uint64
	eventsPerS float64 // sim only
	wallPerVir float64 // sim only
	frames     bool    // items travel as encoded frames (live), not by reference (sim)
}

func layerMetrics(in layerInputs) map[string]metric {
	v := make(map[string]float64, len(perLayer))
	for name, cost := range in.stages {
		v[name] = cost
	}
	for name, m := range in.timings {
		v[name] = m.Value
	}
	a, b := in.load.after, in.load.before
	items := float64(in.load.items)
	perRound := float64(in.load.nodes) * in.load.rounds

	forwards := float64(a.multicast.Forwarded-b.multicast.Forwarded) / items
	v["multicast.forwards_per_item"] = forwards
	v["multicast.duplicates_per_item"] = float64(a.multicast.Duplicates-b.multicast.Duplicates) / items
	v["multicast.filtered_per_item"] = float64(a.multicast.FilteredOut-b.multicast.FilteredOut) / items
	v["multicast.hop_wait_p50_us"] = tailOrMax(in.paths.hopWaitUs, 50)
	if in.load.secure {
		// Every inbound forward is verified once before it is routed or
		// delivered.
		v["cert.verifies_per_item"] = forwards
	}
	fp := float64(a.routing.FalsePositiveDrops - b.routing.FalsePositiveDrops)
	v["pubsub.false_positive_ratio"] = ratio(fp, fp+float64(a.routing.ExactMatches-b.routing.ExactMatches))
	v["wire.gossip_kb_per_node_round"] = ratio(float64(a.gossip.GossipBytesSent-b.gossip.GossipBytesSent)/1e3, perRound)
	v["astrolabe.rows_merged_per_round"] = ratio(float64(a.gossip.RowsMerged-b.gossip.RowsMerged), perRound)
	v["astrolabe.agg_evals_per_round"] = ratio(float64(a.gossip.AggEvals-b.gossip.AggEvals), perRound)
	v["cache.evictions_per_item"] = float64(a.cache.Evicted-b.cache.Evicted) / items

	framesSent := float64(a.transport.FramesSent - b.transport.FramesSent)
	v["transport.frames_per_item"] = framesSent / items
	v["transport.batch_frames_mean"] = ratio(framesSent, float64(a.transport.FlushBatches-b.transport.FlushBatches))
	v["transport.queue_high_water"] = float64(in.open.after.transport.QueueHighWater)
	v["transport.queue_full_drops"] = float64(in.open.after.transport.QueueFullDrops - in.open.before.transport.QueueFullDrops)
	v["transport.conn_drops"] = float64(in.open.after.transport.ConnDrops - in.open.before.transport.ConnDrops)

	v["core.publish_us"] = in.publishUs
	v["sim.events_per_s"] = in.eventsPerS
	v["sim.wall_per_virtual_s"] = in.wallPerVir

	cpuUs := float64(a.cpu-b.cpu) / 1e3
	v["proc.cpu_us_per_item"] = cpuUs / items
	v["proc.gc_cpu_share"] = ratio((a.gcCPU-b.gcCPU)*1e6, cpuUs)
	v["proc.peak_heap_mb"] = float64(in.peakHeap) / 1e6
	v["bench.deliver_p99_ms"] = in.p99Ms
	v["bench.gen_late_p99_ms"] = in.lateP99Ms
	v["bench.trace_overhead_pct"] = ratio(v["items_per_s"]-in.traced, v["items_per_s"]) * 100

	// The ledger: each stage's cost times how often an item needs it. The
	// publisher encodes and (when secure) signs once; every node that routes
	// pays a routing pass; every distinct frame is encoded once, and every
	// forward is enqueued, decoded and (when secure) verified once; every
	// delivery is matched, cached, decoded and sampled; every span is
	// recorded; and gossip runs alongside. What the ledger leaves out —
	// socket reads and writes, scheduling, the harness's own hashing — is
	// the share of CPU it does not explain.
	routes := 1 + in.paths.zoneForwards
	encodes := in.paths.zoneForwards + in.paths.leafFanouts
	dl := in.load.deliveries
	ledgerUs := v["pubsub.encode_item_us"] + routes*v["multicast.route_us"] +
		dl*(v["pubsub.should_deliver_ns"]/1e3+v["cache.put_us"]+v["pubsub.decode_item_us"]+v["metrics.observe_ns"]/1e3) +
		in.paths.spansPerItem*v["trace.record_ns"]/1e3 +
		ratio(perRound, items)*v["astrolabe.tick_us"]
	if in.frames {
		ledgerUs += encodes*v["wire.encode_multicast_us"] +
			forwards*(v["transport.enqueue_ns"]/1e3+v["wire.decode_multicast_us"])
	}
	if in.load.secure {
		ledgerUs += v["cert.sign_us"] + forwards*v["cert.verify_us"]
	}
	v["bench.ledger_coverage"] = ratio(ledgerUs, v["proc.cpu_us_per_item"])

	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

func maxHeap(cs ...counters) uint64 {
	var m uint64
	for _, c := range cs {
		if c.heapAlloc > m {
			m = c.heapAlloc
		}
	}
	return m
}

func medianNs(ns []int64) float64 {
	f := make([]float64, len(ns))
	for i, v := range ns {
		f[i] = float64(v)
	}
	return median(f)
}

// traceLive is the traced run of a live workload: one cluster, an untraced
// arm and a traced arm at half length each, the stage replay, and the
// per-layer table. End-to-end metrics are not reported from here.
func traceLive(spec liveSpec, seed int64, seconds float64, outDir string, log io.Writer) (*outcome, error) {
	p := spec.plan(seconds, true)
	in, err := spec.gen(seed, benchTopology.nodes, p.phases())
	if err != nil {
		return nil, err
	}
	on, logs := spanLogs(benchTopology.nodes)
	opt := liveOptions{
		topo: benchTopology, mode: spec.mode, secure: spec.secure, seed: seed,
		tracer: func(node int) newswire.TraceRecorder { return logs[node] },
	}
	c, _, err := setupLive(spec, in, opt)
	if err != nil {
		return nil, err
	}
	defer c.close()
	r := newLiveRun(c, in)
	if _, _, err := r.closedLoop(p.probes, p.warmup, p.warmup); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	plain, err := r.arm(p, spec, 0)
	if err != nil {
		return nil, err
	}
	on.Store(true)
	traced, err := r.arm(p, spec, 1)
	on.Store(false)
	if err != nil {
		return nil, err
	}
	spans := collect(logs)

	// The traced open loop's first items go to the span file and to the
	// path analysis.
	first := p.armStart(1)
	sample := p.open
	if sample > spanFileItems {
		sample = spanFileItems
	}
	keys := make([]string, sample)
	for i := range keys {
		keys[i] = in.items[first+i].Key()
	}
	paths := analysePaths(spans, keys)
	file := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", spec.name, seed))
	harness := itemSpansOf(traced.open.ledger, sample,
		func(g int) string { return in.items[g].Key() },
		func(g int) string { return benchTopology.addr(benchTopology.publisher(g % publishers)) },
		benchTopology.addr, r.publishAt, r.publishNs)
	if err := writeSpans(file, traced.open.epoch, harness, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(log, "%s: %d spans recorded, %d items' spans written to %s\n", spec.name, len(spans), sample, file)

	view := c.nodes[benchTopology.publisher(0)].Node()
	stages, err := replayStages(replayInput{
		mode: spec.mode, items: replayItems(in.items[p.armStart(0):p.armStart(1)]), view: view,
		subjects: in.subjects[benchTopology.publisher(0)], queries: in.queries[benchTopology.publisher(0)],
		gossipNodes: benchTopology.nodes, gossipBranching: benchTopology.members,
		subscribeSim: func(i int, n *newswire.Node) error {
			for _, q := range in.queries[i] {
				if _, err := n.SubscribeQuery(q); err != nil {
					return err
				}
			}
			if s := in.subjects[i]; len(s) > 0 {
				return n.Subscribe(s...)
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}

	counts := func(before, after counters, items int, ops int64) phaseCounts {
		return phaseCounts{
			before: before, after: after, items: items, nodes: benchTopology.nodes,
			rounds:     float64(after.at.Sub(before.at)) / float64(gossipInterval),
			deliveries: float64(ops) / float64(items), secure: spec.secure,
		}
	}
	wall, _, err := plain.timings(p)
	if err != nil {
		return nil, err
	}
	m := layerMetrics(layerInputs{
		stages:    stages,
		timings:   wall,
		load:      counts(plain.closedBefore, plain.closedAfter, p.closed(), plain.closed.ops),
		open:      counts(plain.open.before, plain.open.after, p.open, plain.open.ops),
		paths:     paths,
		publishUs: medianNs(r.publishNs[first:first+p.open]) / 1e3,
		p99Ms:     tailOrMax(plain.open.deliverMs, 99),
		lateP99Ms: tailOrMax(plain.open.lateMs, 99),
		traced:    median(windowRates(0, traced.ends, p.window)),
		peakHeap: maxHeap(plain.open.before, plain.open.after, plain.closedBefore, plain.closedAfter,
			traced.open.before, traced.open.after, traced.closedBefore, traced.closedAfter),
		frames: true,
	})
	return &outcome{
		workload:  spec.name,
		metrics:   m,
		attempted: r.total.ops,
		failed:    r.total.failed(),
		corrupt:   r.total.corrupt,
	}, nil
}

// traceSim is the traced run of sim_churn: an untraced and a traced cluster
// at half length each (ClusterConfig.Trace is fixed at construction).
func traceSim(seed int64, seconds float64, outDir string, log io.Writer) (*outcome, error) {
	n := simItemCount(seconds, true)
	in, err := genSim(seed, simNodes, n)
	if err != nil {
		return nil, err
	}
	var res [2]simResult
	var sc *simCluster
	for arm, traced := range []bool{false, true} {
		if sc, _, err = setupSim(in, seed, traced); err != nil {
			return nil, err
		}
		if res[arm], err = sc.churnSchedule(in, seed, n); err != nil {
			return nil, err
		}
	}
	spans := sc.TraceSpans()
	sample := n
	if sample > spanFileItems {
		sample = spanFileItems
	}
	keys := make([]string, sample)
	for i := range keys {
		keys[i] = in.items[i].Key()
	}
	// Spans of one item are few among those of a whole run; narrow to the
	// sampled items before walking paths.
	wanted := make(map[uint64]bool, sample)
	for _, k := range keys {
		wanted[trace.DeriveTraceID(k)] = true
	}
	var sampled []trace.Span
	for _, sp := range spans {
		if wanted[sp.TraceID] {
			sampled = append(sampled, sp)
		}
	}
	paths := analysePaths(sampled, keys)
	// The span file keeps a tenth of the sample: one simulated item fans
	// out to a hundred and more deliveries.
	file := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", simChurnName, seed))
	epoch := sc.Eng.Now().Add(-res[1].virtual - simDrain)
	harness := itemSpansOf(res[1].ledger, sample/10,
		func(g int) string { return in.items[g].Key() },
		func(g int) string { return sc.Nodes[simPublisher(g%simPublishers)].Addr() },
		func(node int) string { return sc.Nodes[node].Addr() }, nil, nil)
	if err := writeSpans(file, epoch, harness, sampled); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(log, "%s: %d spans recorded, %d items' spans written to %s\n", simChurnName, len(spans), sample/10, file)

	view := sc.Nodes[simPublisher(0)]
	stages, err := replayStages(replayInput{
		mode: newswire.ModeBloom, items: replayItems(in.items), view: view,
		subjects:    in.subjects[simPublisher(0)],
		gossipNodes: 4 * simBranching, gossipBranching: simBranching,
		subscribeSim: func(i int, n *newswire.Node) error { return n.Subscribe(in.subjects[i]...) },
	})
	if err != nil {
		return nil, err
	}
	plain := res[0]
	wall, _, err := timings(plain.deliverMs, plain.doneMs, plain.segWall, n/simSegments)
	if err != nil {
		return nil, err
	}
	m := layerMetrics(layerInputs{
		stages:  stages,
		timings: wall,
		load: phaseCounts{
			before: plain.before, after: plain.after, items: n, nodes: simNodes,
			rounds:     float64(plain.virtual) / float64(simGossip),
			deliveries: float64(plain.ops) / float64(n),
		},
		paths:      paths,
		publishUs:  medianNs(plain.publishNs) / 1e3,
		p99Ms:      tailOrMax(plain.deliverMs, 99),
		traced:     median(windowRates(0, res[1].segWall, n/simSegments)),
		peakHeap:   maxHeap(plain.before, plain.after, res[1].before, res[1].after),
		eventsPerS: float64(plain.fired) / plain.wall.Seconds(),
		wallPerVir: plain.wall.Seconds() / plain.virtual.Seconds(),
	})
	var total tally
	total.add(res[0].tally)
	total.add(res[1].tally)
	return &outcome{
		workload:  simChurnName,
		metrics:   m,
		attempted: total.ops,
		failed:    total.failed(),
		corrupt:   total.corrupt,
	}, nil
}

// replayItems makes a replay batch of replayCalls items out of the items of
// a run, repeating them when the run published fewer (the simulated one
// does). Copies get IDs of their own so caches and dedup logs see distinct
// items.
func replayItems(items []*newswire.Item) []*newswire.Item {
	out := make([]*newswire.Item, replayCalls)
	for i := range out {
		it := *items[i%len(items)]
		it.ID = fmt.Sprintf("r%07d", i)
		out[i] = &it
	}
	return out
}
