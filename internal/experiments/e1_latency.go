package experiments

import (
	"fmt"
	"time"

	"newswire/internal/astrolabe"
	"newswire/internal/core"
	"newswire/internal/metrics"
	"newswire/internal/news"
	"newswire/internal/wire"
)

// RunE1 measures publish-to-deliver latency across system sizes — the
// abstract's "deliver news updates to hundreds of thousands of subscribers
// within tens of seconds of the moment of publishing".
func RunE1(opt Options) *Table {
	t := &Table{
		ID:    "E1",
		Title: "delivery latency vs. system size",
		Claim: "hundreds of thousands of subscribers within tens of seconds (§Abstract)",
		Columns: []string{"nodes", "zones", "levels", "p50", "p99", "max",
			"delivered"},
	}
	if opt.Nodes > 0 {
		// Single exact-size row with virtual quiescent leaves: the
		// memory-architecture path that makes 10^6 nodes tractable.
		row, wu := runE1Virtual(opt.Nodes, opt.Seed, opt.Workers)
		t.AddRow(row...)
		if wu != nil {
			t.Wire = append(t.Wire, *wu)
		}
		t.Nodes = opt.Nodes
		t.Notes = append(t.Notes,
			"simulated WAN links 20-180ms, 1% loss; latency is virtual time from publish to app delivery",
			"virtual quiescent leaves: 4 real members per leaf zone; delivery counts exact, latency quantiles sampled at real members")
		return t
	}
	sizes := []int{64, 512, 4096}
	if opt.Quick {
		sizes = []int{64, 512}
	}
	if opt.Big {
		sizes = append(sizes, 32768, 131072)
	}
	for _, n := range sizes {
		row, rep, wu := runE1Size(n, opt.Seed, opt.Workers, opt.Trace)
		t.AddRow(row...)
		if rep != nil {
			t.Traces = append(t.Traces, rep)
		}
		if wu != nil {
			t.Wire = append(t.Wire, *wu)
		}
		if n > t.Nodes {
			t.Nodes = n
		}
	}
	t.Notes = append(t.Notes,
		"simulated WAN links 20-180ms, 1% loss; latency is virtual time from publish to app delivery")
	return t
}

// runE1Virtual measures one E1 row with virtual leaves
// (core.ClusterConfig.VirtualSubjects): quiescent members are packed
// template rows plus delivery bitsets, so heap stays O(real agents +
// zones) while the delivered column still counts every one of the n
// members exactly.
func runE1Virtual(n int, seed int64, workers int) ([]string, *WireUsage) {
	branching := 64
	if n < 256 {
		branching = 16
	}
	lat := &metrics.Histogram{}
	var publishAt time.Time
	cluster, err := core.NewCluster(core.ClusterConfig{
		N:               n,
		Branching:       branching,
		Seed:            seed,
		Workers:         workers,
		VirtualSubjects: []string{"tech/linux"},
		Customize: func(i int, cfg *core.Config) {
			cfg.RepCount = 2
			nodeClock := cfg.Clock
			cfg.OnItem = func(*news.Item, *wire.ItemEnvelope) {
				lat.Observe(nodeClock.Now().Sub(publishAt).Seconds())
			}
		},
	})
	if err != nil {
		return []string{fmt.Sprint(n), "error", err.Error(), "", "", "", ""}, nil
	}
	warmRounds := 8 + 2*treeLevels(n, branching)
	cluster.RunRounds(warmRounds)

	publishAt = cluster.Eng.Now()
	it := &news.Item{
		Publisher: "reuters", ID: "breaking", Headline: "breaking news",
		Body: "body", Subjects: []string{"tech/linux"}, Urgency: 1,
		Published: publishAt,
	}
	if err := cluster.Nodes[0].PublishItem(it, "", ""); err != nil {
		return []string{fmt.Sprint(n), "error", err.Error(), "", "", "", ""}, nil
	}
	cluster.RunFor(60 * time.Second)

	// Exact delivery count: real members observed through the latency
	// histogram, virtual members through the per-zone bitsets.
	delivered := lat.Count() + int(cluster.VirtualDelivered())

	sent, _ := cluster.Net.BytesTotals()
	rounds := warmRounds + 30
	wu := &WireUsage{
		Label:         fmt.Sprintf("%d nodes (virtual)", n),
		Nodes:         n,
		Rounds:        rounds,
		BytesOnWire:   sent,
		BytesPerRound: float64(sent) / float64(rounds),
	}
	zones := (n + branching - 1) / branching
	return []string{
		fmt.Sprint(n),
		fmt.Sprint(zones),
		fmt.Sprint(treeLevels(n, branching)),
		fmtMS(lat.Quantile(0.5)),
		fmtMS(lat.Quantile(0.99)),
		fmtMS(lat.Max()),
		fmtPct(float64(delivered) / float64(n)),
	}, wu
}

func runE1Size(n int, seed int64, workers int, traced bool) ([]string, *TraceReport, *WireUsage) {
	branching := 64
	if n < 256 {
		branching = 16
	}
	lat := &metrics.Histogram{}
	var publishAt time.Time
	cluster, err := core.NewCluster(core.ClusterConfig{
		N:         n,
		Branching: branching,
		Seed:      seed,
		Workers:   workers,
		Trace:     traced,
		Customize: func(i int, cfg *core.Config) {
			// k=2 redundant representatives, as the system description
			// prescribes for robust delivery over lossy links (§9-10).
			cfg.RepCount = 2
			// Read delivery time through the node's own clock: under the
			// parallel executor the engine clock lags inside a compute
			// window, while cfg.Clock reports the delivery event's time —
			// identical to what the serial engine clock would have shown.
			nodeClock := cfg.Clock
			cfg.OnItem = func(*news.Item, *wire.ItemEnvelope) {
				lat.Observe(nodeClock.Now().Sub(publishAt).Seconds())
			}
		},
	})
	if err != nil {
		return []string{fmt.Sprint(n), "error", err.Error(), "", "", "", ""}, nil, nil
	}
	for _, node := range cluster.Nodes {
		_ = node.Subscribe("tech/linux")
	}
	// Let subscription summaries aggregate to the root.
	warmRounds := 8 + 2*treeLevels(n, branching)
	cluster.RunRounds(warmRounds)

	publishAt = cluster.Eng.Now()
	it := &news.Item{
		Publisher: "reuters", ID: "breaking", Headline: "breaking news",
		Body: "body", Subjects: []string{"tech/linux"}, Urgency: 1,
		Published: publishAt,
	}
	if err := cluster.Nodes[0].PublishItem(it, "", ""); err != nil {
		return []string{fmt.Sprint(n), "error", err.Error(), "", "", "", ""}, nil, nil
	}
	cluster.RunFor(60 * time.Second)

	delivered := lat.Count()
	p50 := lat.Quantile(0.5)
	p99 := lat.Quantile(0.99)
	max := lat.Max()

	zones := make(map[string]bool)
	for _, node := range cluster.Nodes {
		zones[node.ZonePath()] = true
	}
	var rep *TraceReport
	if traced {
		rep = BuildTraceReport(fmt.Sprintf("E1 %d nodes", n), cluster.TraceSpans(), 3)
	}
	// Wire-byte usage per gossip round: warmup plus the 30 rounds (2s
	// interval) inside the 60s delivery window.
	sent, _ := cluster.Net.BytesTotals()
	rounds := warmRounds + 30
	wu := &WireUsage{
		Label:         fmt.Sprintf("%d nodes", n),
		Nodes:         n,
		Rounds:        rounds,
		BytesOnWire:   sent,
		BytesPerRound: float64(sent) / float64(rounds),
	}
	return []string{
		fmt.Sprint(n),
		fmt.Sprint(len(zones)),
		fmt.Sprint(treeLevels(n, branching)),
		fmtMS(p50),
		fmtMS(p99),
		fmtMS(max),
		fmtPct(float64(delivered) / float64(n)),
	}, rep, wu
}

// treeLevels returns the depth of the balanced tree the cluster builder
// produces for n nodes with the given branching.
func treeLevels(n, b int) int {
	return astrolabe.ZoneDepth(core.ZonePathFor(0, n, b))
}
