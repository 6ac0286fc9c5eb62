package core

import (
	"testing"
	"time"

	"newswire/internal/news"
	"newswire/internal/trace"
)

// runTracedScenario mirrors runScenario's workload exactly, with span
// collection switched on, and returns the state fingerprint plus the
// canonical span set.
func runTracedScenario(t *testing.T, n int, seed int64, workers int) (string, []trace.Span) {
	t.Helper()
	cluster, err := NewCluster(ClusterConfig{
		N:       n,
		Seed:    seed,
		Workers: workers,
		Trace:   true,
		Customize: func(i int, cfg *Config) {
			cfg.RepCount = 2
		},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	for _, node := range cluster.Nodes {
		if err := node.Subscribe("tech/linux"); err != nil {
			t.Fatalf("subscribe: %v", err)
		}
	}
	cluster.RunRounds(6)
	it := &news.Item{
		Publisher: "reuters", ID: "breaking", Headline: "h",
		Body: "b", Subjects: []string{"tech/linux"}, Urgency: 1,
		Published: cluster.Eng.Now(),
	}
	if err := cluster.Nodes[0].PublishItem(it, "", ""); err != nil {
		t.Fatalf("publish: %v", err)
	}
	cluster.RunFor(20 * time.Second)
	return scenarioFingerprint(t, cluster), cluster.TraceSpans()
}

// TestTracedRunMatchesUntraced is the observability layer's determinism
// gate: attaching the span collector must not change a single byte of the
// simulation — same zone tables, same traffic counters, same deliveries —
// under both the serial engine and the parallel executor.
func TestTracedRunMatchesUntraced(t *testing.T) {
	n := 128
	seed := int64(7)
	for _, workers := range []int{0, 4} {
		untraced := runScenario(t, n, seed, workers)
		traced, spans := runTracedScenario(t, n, seed, workers)
		if traced != untraced {
			t.Errorf("workers=%d: traced run diverged from untraced (fingerprint %s vs %s)",
				workers, traced[:16], untraced[:16])
		}
		if len(spans) == 0 {
			t.Errorf("workers=%d: traced run recorded no spans", workers)
		}
	}
}

// TestTraceSpansSerialParallelIdentical pins the collector's canonical
// order: the same seed yields the same span set, span for span, whether
// the cluster ran serially or under the parallel executor.
func TestTraceSpansSerialParallelIdentical(t *testing.T) {
	n := 128
	for _, seed := range []int64{1, 42} {
		_, serial := runTracedScenario(t, n, seed, 0)
		_, parallel := runTracedScenario(t, n, seed, 4)
		if sf, pf := trace.Fingerprint(serial), trace.Fingerprint(parallel); sf != pf {
			t.Errorf("seed %d: span sets differ: serial %d spans (%s) vs parallel %d spans (%s)",
				seed, len(serial), sf[:16], len(parallel), pf[:16])
		}
	}
}

// TestTraceSpansExplainDelivery asserts the recorded spans actually
// reconstruct a delivery: every delivered node has a deliver span whose
// hop path walks back to the publisher.
func TestTraceSpansExplainDelivery(t *testing.T) {
	_, spans := runTracedScenario(t, 64, 3, 0)
	kinds := map[trace.Kind]int{}
	for _, s := range spans {
		kinds[s.Kind]++
	}
	if kinds[trace.KindPublish] == 0 || kinds[trace.KindForward] == 0 || kinds[trace.KindDeliver] == 0 {
		t.Fatalf("span kinds incomplete: %v", kinds)
	}
	// Pick one deliver span and reconstruct its path.
	var deliver *trace.Span
	for i := range spans {
		if spans[i].Kind == trace.KindDeliver && spans[i].Node != "n0" {
			deliver = &spans[i]
			break
		}
	}
	if deliver == nil {
		t.Fatal("no remote deliver span recorded")
	}
	path := trace.PathTo(spans, deliver.Key, deliver.Node)
	if len(path) < 3 {
		t.Fatalf("path to %s has %d spans, want >= 3 (publish, forward+, deliver): %+v",
			deliver.Node, len(path), path)
	}
	if path[0].Kind != trace.KindPublish || path[0].Node != "n0" {
		t.Errorf("path does not start at the publisher: %+v", path[0])
	}
	if last := path[len(path)-1]; last.Kind != trace.KindDeliver || last.Node != deliver.Node {
		t.Errorf("path does not end at the delivery: %+v", last)
	}
}

// TestTraceIDJoinsSpans asserts every span an item's delivery produced
// carries the trace ID derived from its envelope key — the join handle
// that stitches spans from different processes into one trace.
func TestTraceIDJoinsSpans(t *testing.T) {
	_, spans := runTracedScenario(t, 64, 3, 0)
	var key string
	for i := range spans {
		if spans[i].Kind == trace.KindPublish {
			key = spans[i].Key
			break
		}
	}
	if key == "" {
		t.Fatal("no publish span recorded")
	}
	want := trace.DeriveTraceID(key)
	joined := trace.ByTrace(spans, want)
	if len(joined) == 0 {
		t.Fatalf("no spans carry trace ID %x", want)
	}
	kinds := map[trace.Kind]bool{}
	for _, s := range spans {
		if s.Key != key {
			continue
		}
		if s.TraceID != want {
			t.Fatalf("span %+v: trace ID %x, want %x", s, s.TraceID, want)
		}
		kinds[s.Kind] = true
	}
	if !kinds[trace.KindPublish] || !kinds[trace.KindForward] || !kinds[trace.KindDeliver] {
		t.Fatalf("joined trace misses lifecycle kinds: %v", kinds)
	}
}
