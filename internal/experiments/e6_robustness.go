package experiments

import (
	"fmt"
	"time"

	"newswire/internal/core"
	"newswire/internal/news"
	"newswire/internal/trace"
)

// e6AckTimeout is the retry arm's ack deadline. Virtual link latency
// tops out at 180ms, so 1s cleanly separates "slow" from "lost" while
// leaving room for several backoff doublings inside the run window.
const e6AckTimeout = time.Second

// RunE6 measures delivery under forwarder failure with and without
// k-redundant representatives, ack/retry forwarding, and cache-based
// end-to-end recovery — the §9–10 machinery ("multiple representatives
// to forward a new item, to increase the robustness of the delivery";
// "the same cache is used for assisting in achieving end-to-end
// reliability in the case of forwarding node failures").
//
// Each (killed, k) case runs twice: retry off (fire-and-forget
// forwarding, the original protocol) and retry on (per-forward acks,
// retransmission with exponential backoff, representative failover).
// The final rows crash the very nodes the publisher's first item was
// forwarded through, while the forwards are still in flight — the
// crash-during-forward fault that redundancy alone cannot mask at k=1.
func RunE6(opt Options) *Table {
	killFractions := []float64{0, 0.05, 0.10, 0.20}
	repCounts := []int{1, 2, 3}
	if opt.Quick {
		killFractions = []float64{0, 0.10}
		repCounts = []int{1, 3}
	}
	n := 192
	if opt.Quick {
		n = 96
	}
	t := &Table{
		ID:    "E6",
		Title: "delivery under forwarder failure (k reps, ack/retry, cache recovery)",
		Claim: "redundant reps + ack/retry + cache recovery preserve delivery (§9-10)",
		Columns: []string{"killed", "k", "retry", "delivered", "after recovery",
			"retries", "failovers", "dup forwards"},
	}

	const itemCount = 10
	for _, phi := range killFractions {
		for _, k := range repCounts {
			for _, retry := range []bool{false, true} {
				row := runE6Case(opt.Seed, n, phi, k, itemCount, retry)
				t.AddRow(row...)
			}
		}
	}
	for _, retry := range []bool{false, true} {
		row, rep := runE6ForwarderCrash(opt.Seed, n, itemCount, retry, opt.Trace)
		t.AddRow(row...)
		if rep != nil {
			t.Traces = append(t.Traces, rep)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d nodes, branching 16; failures injected right before publishing (tables still list the dead)", n),
		"'delivered' counts live subscribers only; recovery = one RecoverFromZonePeer round",
		fmt.Sprintf("retry=on: acks per forward, %v deadline, exponential backoff, failover to the next listed representative", e6AckTimeout),
		"fwd-crash: k=1, the first item's actual zone-level forwarders crash 10ms after publish, with forwards still in flight")
	return t
}

// newE6Cluster builds the shared cluster shape for E6 cases.
func newE6Cluster(seed int64, n, k int, retry, traced bool) (*core.Cluster, error) {
	return core.NewCluster(core.ClusterConfig{
		N: n, Branching: 16, Seed: seed, Trace: traced,
		Customize: func(i int, cfg *core.Config) {
			cfg.RepCount = k
			if retry {
				cfg.AckTimeout = e6AckTimeout
			}
		},
	})
}

func runE6Case(seed int64, n int, phi float64, k, itemCount int, retry bool) []string {
	cluster, err := newE6Cluster(seed+int64(phi*100)+int64(k), n, k, retry, false)
	if err != nil {
		return []string{"error", err.Error(), "", "", "", "", "", ""}
	}
	for _, node := range cluster.Nodes {
		_ = node.Subscribe("tech/security")
	}
	cluster.RunRounds(10)

	// Kill a fraction of nodes (never the publisher, node 0) right
	// before publishing so every table still lists them as live
	// representatives.
	killed := int(phi * float64(n))
	for i := 0; i < killed; i++ {
		victim := cluster.Nodes[1+(i*7)%(n-1)]
		cluster.Net.Crash(victim.Addr())
	}

	pubAt := cluster.Eng.Now()
	for i := 0; i < itemCount; i++ {
		it := &news.Item{
			Publisher: "reuters", ID: fmt.Sprintf("rob-%d", i),
			Headline: "x", Body: "y",
			Subjects:  []string{"tech/security"},
			Published: pubAt,
		}
		_ = cluster.Nodes[0].PublishItem(it, "", "")
	}
	cluster.RunFor(20 * time.Second)

	return e6Tally(cluster, phi, fmtPct(phi), k, itemCount, retry)
}

// runE6ForwarderCrash is the crash-during-forward scenario: publish with
// k=1, then crash the exact representatives the publisher's first item
// was handed to — 10ms after publish, under the minimum 20ms link
// latency, so the forwards are lost mid-flight. Without retries every
// zone behind a crashed forwarder misses the item; with retries the
// publisher's ack deadline fires and fails over to the next listed
// representative of the same zone.
func runE6ForwarderCrash(seed int64, n, itemCount int, retry, traced bool) ([]string, *TraceReport) {
	const k = 1
	// Always traced: the victims come from the publisher's spans, and
	// tracing moves no message or random draw.
	cluster, err := newE6Cluster(seed+9001, n, k, retry, true)
	if err != nil {
		return []string{"error", err.Error(), "", "", "", "", "", ""}, nil
	}
	for _, node := range cluster.Nodes {
		_ = node.Subscribe("tech/security")
	}
	cluster.RunRounds(10)

	pub := cluster.Nodes[0]
	pubAt := cluster.Eng.Now()
	for i := 0; i < itemCount; i++ {
		it := &news.Item{
			Publisher: "reuters", ID: fmt.Sprintf("fwd-%d", i),
			Headline: "x", Body: "y",
			Subjects:  []string{"tech/security"},
			Published: pubAt,
		}
		_ = pub.PublishItem(it, "", "")
	}

	// Publishing routes synchronously, so the publisher's forward spans
	// already name the first item's zone-level destinations. Spans are
	// recorded only for remote transmissions, and leaf-zone deliver
	// copies carry the publisher's own zone path and are excluded —
	// crashing plain subscribers tests nothing about forwarding.
	firstKey := ""
	victims := make(map[string]bool)
	for _, s := range cluster.TraceSpans() {
		if s.Kind != trace.KindForward || s.Node != pub.Addr() || s.Zone == pub.ZonePath() {
			continue
		}
		if firstKey == "" {
			firstKey = s.Key
		}
		if s.Key == firstKey {
			victims[s.To] = true
		}
	}
	for v := range victims {
		cluster.Net.CrashAfter(v, 10*time.Millisecond)
	}
	cluster.RunFor(30 * time.Second)

	row := e6Tally(cluster, float64(len(victims))/float64(n), "fwd-crash", k, itemCount, retry)
	var rep *TraceReport
	if traced {
		label := "E6 fwd-crash retry=off"
		if retry {
			label = "E6 fwd-crash retry=on"
		}
		rep = BuildTraceReport(label, cluster.TraceSpans(), 2)
	}
	return row, rep
}

// e6Tally measures delivery before and after cache recovery and renders
// one table row.
func e6Tally(cluster *core.Cluster, phi float64, label string, k, itemCount int, retry bool) []string {
	liveNodes := 0
	var got int64
	for _, node := range cluster.Nodes {
		if cluster.Net.Crashed(node.Addr()) {
			continue
		}
		liveNodes++
		got += node.Delivered()
	}
	want := int64(liveNodes * itemCount)
	before := float64(got) / float64(want)

	// End-to-end recovery: every live node that missed something asks a
	// zone peer's cache. A second pass covers peers that themselves
	// recovered first.
	for pass := 0; pass < 2; pass++ {
		for _, node := range cluster.Nodes {
			if cluster.Net.Crashed(node.Addr()) {
				continue
			}
			if node.Delivered() < int64(itemCount) {
				_ = node.RecoverFromZonePeer(itemCount * 2)
			}
		}
		cluster.RunFor(10 * time.Second)
	}

	got = 0
	var dups, retries, failovers int64
	for _, node := range cluster.Nodes {
		if cluster.Net.Crashed(node.Addr()) {
			continue
		}
		got += node.Delivered()
		st := node.Router().Stats()
		dups += st.Duplicates
		retries += st.RetriesSent
		failovers += st.FailoversTotal
	}
	after := float64(got) / float64(want)

	onOff := "off"
	if retry {
		onOff = "on"
	}
	return []string{
		label,
		fmt.Sprint(k),
		onOff,
		fmtPct(before),
		fmtPct(after),
		fmtI(retries),
		fmtI(failovers),
		fmtI(dups),
	}
}
