package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"newswire"
)

// nominalSeconds is the --seconds value the committed constants are sized
// for (BENCHMARK.json run_seconds). Phase lengths scale with --seconds;
// rates do not.
const nominalSeconds = 20

// setups is how many times a run builds its cluster; setup_s is the median.
const setups = 3

// warmupItems fills the 1,024-item caches and dedup logs before anything
// is timed, so every measured item meets the same state.
const warmupItems = 1200

// liveSpec is the committed constants of one live workload. The open-loop
// rate is a constant of about a sixth of the capacity measured when the
// benchmark was sized — never derived from the run's own throughput — so a
// stolen vCPU leaves slack instead of a growing queue, and so that the
// share of deliveries that meet a garbage collection stays well below the
// tenth that deliver_p90_ms looks at.
type liveSpec struct {
	name        string
	mode        newswire.Mode
	secure      bool
	openRate    float64 // items/s in the open loop
	windowItems int     // closed-loop items per window at nominalSeconds
	probes      int     // readiness-probe items at the head of the input
	gen         func(seed int64, nodes int, phases []int) (*input, error)
}

var liveSpecs = []liveSpec{
	{name: "fanout", mode: newswire.ModeBloom, openRate: 150, windowItems: 625, probes: publishers, gen: genFanout},
	{name: "signed", mode: newswire.ModeBloom, secure: true, openRate: 60, windowItems: 220, probes: publishers, gen: genFanout},
	{name: "selective", mode: newswire.ModePredicate, openRate: 1200, windowItems: 4500, probes: selRanks * publishers, gen: genSelective},
}

// plan is the item budget of one run: fixed counts per phase, so cache,
// dedup-log and heap state are the same at every measurement point of
// every run with the same --seconds.
type plan struct {
	probes, warmup int
	arms           int // 1, or 2 when a traced arm follows the untraced one
	open, window   int // per arm
}

func (s liveSpec) plan(seconds float64, traced bool) plan {
	p := plan{probes: s.probes, warmup: warmupItems, arms: 1}
	scale := seconds / nominalSeconds
	if traced {
		// The traced run measures an untraced and a traced arm on one
		// cluster, each at half length.
		p.arms = 2
		scale /= 2
	}
	p.open = int(s.openRate*0.4*nominalSeconds*scale + 0.5)
	p.window = int(float64(s.windowItems)*scale + 0.5)
	if p.window < inflight {
		p.window = inflight
	}
	return p
}

func (p plan) closed() int { return windows * p.window }
func (p plan) total() int  { return p.probes + p.warmup + p.arms*(p.open+p.closed()) }

// phases lists the item counts of the stretches measured separately, in
// publication order.
func (p plan) phases() []int {
	out := []int{p.probes + p.warmup}
	for arm := 0; arm < p.arms; arm++ {
		out = append(out, p.open, p.closed())
	}
	return out
}

// armStart is the index of the first open-loop item of an arm.
func (p plan) armStart(arm int) int { return p.probes + p.warmup + arm*(p.open+p.closed()) }

// outcome is what one run of one workload produced.
type outcome struct {
	workload string
	metrics  map[string]metric
	// diag are metrics shown to the reader but not part of the result
	// line: the wall-clock numbers of an untraced run.
	diag      map[string]metric
	samples   map[string]int // sample count behind each wall-clock metric
	attempted int64
	failed    int64
	corrupt   int64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupLive builds the cluster and proves it ready: after the settle time a
// probe item from every publisher (for selective, one per publisher and
// subscribed subject) must reach exactly its expected subscribers. It
// returns the cluster and how long set-up took.
func setupLive(spec liveSpec, in *input, opt liveOptions) (*liveCluster, time.Duration, error) {
	t0 := time.Now()
	c, started, err := startLive(in, opt)
	if err != nil {
		return nil, 0, err
	}
	time.Sleep(time.Until(started.Add(settleRounds * gossipInterval)))
	r := newLiveRun(c, in)
	l, epoch, err := r.open(0, spec.probes, 0)
	if err != nil {
		c.close()
		return nil, 0, err
	}
	for i := 0; i < spec.probes; i++ {
		if err := r.publish(l, epoch, i, time.Since(epoch)); err != nil {
			c.close()
			return nil, 0, err
		}
	}
	l.wait(probeTimeout)
	elapsed := time.Since(t0)
	c.book.Store(nil)
	if t := l.close(); t.failed() != 0 {
		c.close()
		return nil, 0, fmt.Errorf("cluster not ready %v after start: of %d probe deliveries %d missing, %d duplicate, %d stray, %d corrupt",
			elapsed.Round(time.Millisecond), t.ops, t.missing, t.duplicate, t.stray, t.corrupt)
	}
	return c, elapsed, nil
}

// armResult is one pass over the open and the closed loop.
type armResult struct {
	open   openResult
	closed tally
	ends   []float64
	// closedBefore/closedAfter bracket the closed loop.
	closedBefore, closedAfter counters
}

func (r *liveRun) arm(p plan, spec liveSpec, arm int) (armResult, error) {
	var a armResult
	var err error
	first := p.armStart(arm)
	if a.open, err = r.openLoop(first, p.open, spec.openRate); err != nil {
		return a, err
	}
	a.closedBefore = readCounters(liveNodesOf(r.c))
	if a.ends, a.closed, err = r.closedLoop(first+p.open, p.closed(), p.window); err != nil {
		return a, err
	}
	a.closedAfter = readCounters(liveNodesOf(r.c))
	return a, nil
}

// costs computes the end-to-end metrics that are counts: what one item
// costs in bytes sent and in memory allocated. They come from the open
// loop, whose duration and item count are both fixed, so the background
// work (gossip, health rows) charged to an item is the same on every run.
func costs(before, after counters, items int, wireBytes int64) map[string]metric {
	n := float64(items)
	return map[string]metric{
		"wire_kb_per_item":  {float64(wireBytes) / 1e3 / n, "KB"},
		"alloc_kb_per_item": {float64(after.allocBytes-before.allocBytes) / 1e3 / n, "KB"},
		"allocs_per_item":   {float64(after.mallocs-before.mallocs) / n, "count"},
	}
}

// timings computes the wall-clock metrics of a pass: throughput as the
// median window, delivery and completion latency of the open loop. On the
// box this benchmark was calibrated on they do not repeat within any bound
// the benchmark may declare, so they are diagnostics (see README.md).
func timings(deliverMs, doneMs, windowEnds []float64, window int) (map[string]metric, map[string]int, error) {
	p50, err := percentile(deliverMs, 50)
	if err != nil {
		return nil, nil, err
	}
	p90, err := percentile(deliverMs, 90)
	if err != nil {
		return nil, nil, err
	}
	c50, err := percentile(doneMs, 50)
	if err != nil {
		return nil, nil, err
	}
	m := map[string]metric{
		"items_per_s":     {median(windowRates(0, windowEnds, window)), "1/s"},
		"deliver_p50_ms":  {p50, "ms"},
		"deliver_p90_ms":  {p90, "ms"},
		"complete_p50_ms": {c50, "ms"},
	}
	n := map[string]int{
		"items_per_s":     len(windowEnds),
		"deliver_p50_ms":  len(deliverMs),
		"deliver_p90_ms":  len(deliverMs),
		"complete_p50_ms": len(doneMs),
	}
	return m, n, nil
}

func (a armResult) costs(p plan) map[string]metric {
	return costs(a.open.before, a.open.after, p.open,
		a.open.after.transport.BytesSent-a.open.before.transport.BytesSent)
}

func (a armResult) timings(p plan) (map[string]metric, map[string]int, error) {
	return timings(a.open.deliverMs, a.open.doneMs, a.ends, p.window)
}

// runLive runs one live workload untraced and returns its end-to-end
// metrics.
func runLive(spec liveSpec, seed int64, seconds float64, log io.Writer) (*outcome, error) {
	t0 := time.Now()
	p := spec.plan(seconds, false)
	in, err := spec.gen(seed, benchTopology.nodes, p.phases())
	if err != nil {
		return nil, err
	}
	genTime := time.Since(t0)

	opt := liveOptions{topo: benchTopology, mode: spec.mode, secure: spec.secure, seed: seed}
	var c *liveCluster
	var setupTimes []float64
	for k := 0; k < setups; k++ {
		if c != nil {
			c.close()
			c = nil
		}
		runtime.GC() // every set-up starts from the same heap, not from its predecessor's garbage
		var d time.Duration
		if c, d, err = setupLive(spec, in, opt); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
	}
	defer func() { c.close() }()
	setup := genTime + time.Duration(median(setupTimes)*float64(time.Second))
	fmt.Fprintf(log, "%s: generated %d items in %v; cluster set-ups %.3f s\n", spec.name, p.total(), genTime.Round(time.Millisecond), setupTimes)

	r := newLiveRun(c, in)
	if _, _, err := r.closedLoop(p.probes, p.warmup, p.warmup); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	a, err := r.arm(p, spec, 0)
	if err != nil {
		return nil, err
	}
	m := a.costs(p)
	m["setup_s"] = metric{setup.Seconds(), "s"}
	diag, n, err := a.timings(p)
	if err != nil {
		return nil, err
	}
	drops := a.open.after.transport.QueueFullDrops + a.open.after.transport.ConnDrops -
		a.open.before.transport.QueueFullDrops - a.open.before.transport.ConnDrops
	fmt.Fprintf(log, "%s: open loop %d items at %.0f/s, generator late p99 %.3f ms, transport drops %d; deliveries outside their phase %d\n",
		spec.name, p.open, spec.openRate, tailOrMax(a.open.lateMs, 99), drops, r.outside.Load())
	// The harness's own data goes before the heap is read: what remains is
	// what the cluster retains — caches, dedup logs, rings, zone tables.
	in.items, in.hashes, r.publishAt, r.publishNs = nil, nil, nil, nil
	a.open = openResult{}
	m["live_heap_mb"] = metric{liveHeapMB(), "MB"}
	return &outcome{
		workload:  spec.name,
		metrics:   m,
		diag:      diag,
		samples:   n,
		attempted: r.total.ops,
		failed:    r.total.failed(),
		corrupt:   r.total.corrupt,
	}, nil
}

// liveHeapMB is the heap still reachable after two collections (the second
// frees what the first one's finalizers released).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func sortedMs(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}
