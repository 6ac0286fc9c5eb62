package trace

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }

func TestKindJSONRoundTrip(t *testing.T) {
	for k := KindPublish; k <= KindDeliveryFail; k++ {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var back Kind
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != k {
			t.Errorf("round trip %v -> %s -> %v", k, data, back)
		}
	}
	var bad Kind
	if err := json.Unmarshal([]byte(`"nonsense"`), &bad); err == nil {
		t.Error("unknown kind name unmarshalled without error")
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(Span{Kind: KindForward, Hop: i, At: at(i)})
	}
	if got := r.Recorded(); got != 10 {
		t.Fatalf("Recorded() = %d, want 10", got)
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := 6 + i; s.Hop != want {
			t.Errorf("spans[%d].Hop = %d, want %d (oldest-first)", i, s.Hop, want)
		}
	}
}

func TestRingDefaultCapacity(t *testing.T) {
	r := NewRing(0)
	if c := cap(r.buf); c != 4096 {
		t.Errorf("default cap = %d, want 4096", c)
	}
}

// TestRingConcurrent drives concurrent writers and readers; its value is
// under -race, where any unsynchronized access fails the run.
func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Span{Kind: KindDeliver, Node: "n", Hop: i, At: at(i)})
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = r.Spans()
			_ = r.Recorded()
		}
	}()
	wg.Wait()
	if got := r.Recorded(); got != 2000 {
		t.Fatalf("Recorded() = %d, want 2000", got)
	}
	if got := len(r.Spans()); got != 64 {
		t.Fatalf("retained %d spans, want 64", got)
	}
}

func TestCollectorCanonicalOrder(t *testing.T) {
	c := NewCollector(3)
	// Node 2 records first in real order, but its span is later in time.
	c.Node(2).Record(Span{Kind: KindDeliver, Node: "n2", At: at(30)})
	c.Node(1).Record(Span{Kind: KindForward, Node: "n1", At: at(10)})
	c.Node(0).Record(Span{Kind: KindPublish, Node: "n0", At: at(10)})
	c.Node(1).Record(Span{Kind: KindDeliver, Node: "n1", At: at(20)})
	if c.Len() != 4 {
		t.Fatalf("Len() = %d", c.Len())
	}
	spans := c.Spans()
	wantNodes := []string{"n0", "n1", "n1", "n2"} // time asc, node index tiebreak
	for i, want := range wantNodes {
		if spans[i].Node != want {
			t.Fatalf("spans[%d].Node = %s, want %s (order %+v)", i, spans[i].Node, want, spans)
		}
	}
}

func TestFingerprintOrderSensitive(t *testing.T) {
	a := []Span{{Kind: KindPublish, Key: "k", At: at(1)}, {Kind: KindDeliver, Key: "k", At: at(2)}}
	b := []Span{a[1], a[0]}
	if Fingerprint(a) == Fingerprint(b) {
		t.Error("reordered span slices produced equal fingerprints")
	}
	if Fingerprint(a) != Fingerprint(append([]Span(nil), a...)) {
		t.Error("identical span slices produced different fingerprints")
	}
}

func TestPathTo(t *testing.T) {
	spans := []Span{
		{Kind: KindPublish, Key: "k", Node: "n0", At: at(0)},
		{Kind: KindForward, Key: "k", Node: "n0", To: "n5", Hop: 1, At: at(0)},
		{Kind: KindForward, Key: "k", Node: "n5", To: "n9", Hop: 2, At: at(40)},
		// A later redundant copy toward n9 must lose to the earlier one.
		{Kind: KindForward, Key: "k", Node: "n7", To: "n9", Hop: 2, At: at(55)},
		{Kind: KindDeliver, Key: "k", Node: "n9", At: at(60)},
		// Noise: another item's spans.
		{Kind: KindForward, Key: "other", Node: "n0", To: "n9", At: at(10)},
	}
	path := PathTo(spans, "k", "n9")
	if len(path) != 4 {
		t.Fatalf("path length %d, want 4: %+v", len(path), path)
	}
	wantKinds := []Kind{KindPublish, KindForward, KindForward, KindDeliver}
	for i, k := range wantKinds {
		if path[i].Kind != k {
			t.Fatalf("path[%d].Kind = %v, want %v", i, path[i].Kind, k)
		}
	}
	if path[2].Node != "n5" {
		t.Errorf("hop 2 source = %s, want n5 (earliest transmission wins)", path[2].Node)
	}
	if got := PathTo(spans, "k", "nowhere"); got != nil {
		t.Errorf("PathTo to an undelivered node = %+v, want nil", got)
	}
}

// TestSlowest pins the explainer's selection: latency from the first
// publish span of the key, slowest first with ties in span order, the
// top n (all when n <= 0), deliveries of unpublished items skipped, and
// hop deltas from PathTo's path.
func TestSlowest(t *testing.T) {
	spans := []Span{
		{Kind: KindPublish, Key: "a", Node: "n0", At: at(0)},
		{Kind: KindPublish, Key: "b", Node: "n0", At: at(10)},
		{Kind: KindPublish, Key: "a", Node: "n3", At: at(20)}, // not the first: ignored
		{Kind: KindForward, Key: "a", Node: "n0", To: "n1", Hop: 1, At: at(0)},
		{Kind: KindDeliver, Key: "a", Node: "n1", At: at(30)},
		{Kind: KindDeliver, Key: "b", Node: "n2", At: at(40)},
		{Kind: KindDeliver, Key: "a", Node: "n4", At: at(50)},
		{Kind: KindDeliver, Key: "lost", Node: "n5", At: at(90)}, // no publish span
	}
	got := Slowest(spans, 2)
	if len(got) != 2 {
		t.Fatalf("Slowest(2) returned %d deliveries: %+v", len(got), got)
	}
	// a@n4 (50ms) first; a@n1 and b@n2 tie at 30ms and keep span order.
	want := []struct {
		key, node string
		lat       time.Duration
	}{{"a", "n4", 50 * time.Millisecond}, {"a", "n1", 30 * time.Millisecond}}
	for i, w := range want {
		if got[i].Key != w.key || got[i].Node != w.node || got[i].Latency != w.lat {
			t.Errorf("slowest[%d] = %s@%s %v, want %s@%s %v",
				i, got[i].Key, got[i].Node, got[i].Latency, w.key, w.node, w.lat)
		}
	}
	hops := got[1].Hops
	if len(hops) != 3 || hops[0].Span.Kind != KindPublish || hops[2].Span.Kind != KindDeliver {
		t.Fatalf("a@n1 hops = %+v, want publish, forward, deliver", hops)
	}
	if hops[0].Delta != 0 || hops[2].Delta != 30*time.Millisecond {
		t.Errorf("a@n1 deltas = %v, %v, %v; want 0, 0, 30ms", hops[0].Delta, hops[1].Delta, hops[2].Delta)
	}
	if all := Slowest(spans, 0); len(all) != 3 {
		t.Errorf("Slowest(0) returned %d deliveries, want all 3 with a publish span", len(all))
	}
}
