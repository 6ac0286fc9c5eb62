package experiments

import (
	"fmt"
	"time"

	"newswire/internal/core"
	"newswire/internal/news"
	"newswire/internal/sqlagg"
)

// RunA2 compares representative-election policies (§5: representatives
// are elected by "an aggregation function that combines the local
// knowledge of availability of independent network paths to a node, the
// load on those paths and the load on each node").
func RunA2(opt Options) *Table {
	t := &Table{
		ID:    "A2",
		Title: "representative election: min-load vs. random",
		Claim: "load-aware election spreads forwarding away from loaded nodes (§5)",
		Columns: []string{"policy", "fwd by loaded nodes", "fwd by others",
			"loaded-node share"},
	}
	policies := map[string]*sqlagg.Program{
		"min-load": nil, // default aggregation
		"random": sqlagg.MustParse(`SELECT
			SUM(COALESCE(nmembers, 1)) AS nmembers,
			REPS(3, HASH(addr), COALESCE(reps, addr)) AS reps,
			MINV(HASH(addr), addr) AS addr,
			MIN(load) AS load,
			BIT_OR(subs) AS subs,
			UNION(pubs) AS pubs`),
	}
	for _, name := range []string{"min-load", "random"} {
		t.AddRow(runA2Policy(opt.Seed, name, policies[name])...)
	}
	t.Notes = append(t.Notes,
		"64 nodes; one third advertise load 0.9 (loaded), the rest 0.1; 20 items published")
	return t
}

func runA2Policy(seed int64, name string, aggr *sqlagg.Program) []string {
	const n = 64
	cluster, err := core.NewCluster(core.ClusterConfig{
		N: n, Branching: 8, Seed: seed + 31,
		Customize: func(i int, cfg *core.Config) {
			cfg.Aggregation = aggr
		},
	})
	if err != nil {
		return []string{name, "error", err.Error(), ""}
	}
	loaded := make(map[string]bool)
	for i, node := range cluster.Nodes {
		_ = node.Subscribe("business/economy")
		if i%3 == 0 {
			node.SetLoad(0.9)
			loaded[node.Addr()] = true
		} else {
			node.SetLoad(0.1)
		}
	}
	cluster.RunRounds(10)

	for i := 0; i < 20; i++ {
		it := &news.Item{
			Publisher: "reuters", ID: fmt.Sprintf("a2-%d", i),
			Headline: "x", Body: "y", Subjects: []string{"business/economy"},
			Published: cluster.Eng.Now(),
		}
		_ = cluster.Nodes[i%n].PublishItem(it, "", "")
		cluster.RunFor(time.Second)
	}
	cluster.RunFor(10 * time.Second)

	var loadedFwd, otherFwd int64
	for _, node := range cluster.Nodes {
		f := node.Router().Stats().Forwarded
		if loaded[node.Addr()] {
			loadedFwd += f
		} else {
			otherFwd += f
		}
	}
	share := float64(loadedFwd) / float64(loadedFwd+otherFwd)
	return []string{name, fmtI(loadedFwd), fmtI(otherFwd), fmtPct(share)}
}

// RunA3 measures the traffic saved by publishing into a sub-zone instead
// of the root (§8: "A publisher is able to restrict the scope of the
// dissemination ... for example allows the publisher to disseminate
// localized news items in Asia").
func RunA3(opt Options) *Table {
	t := &Table{
		ID:    "A3",
		Title: "publication scope: root vs. regional zone",
		Claim: "zone scoping contains dissemination traffic (§8)",
		Columns: []string{"scope", "deliveries", "multicast msgs",
			"msgs/delivery"},
	}
	const n = 96
	for _, scope := range []string{"/", "regional"} {
		t.AddRow(runA3Scope(opt.Seed, n, scope)...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d nodes; all subscribe; 'regional' scopes to the first top-level zone", n))
	return t
}

func runA3Scope(seed int64, n int, scope string) []string {
	cluster, err := core.NewCluster(core.ClusterConfig{
		N: n, Branching: 8, Seed: seed + 77,
	})
	if err != nil {
		return []string{scope, "error", err.Error(), ""}
	}
	for _, node := range cluster.Nodes {
		_ = node.Subscribe("world/asia")
	}
	cluster.RunRounds(10)

	target := scope
	if scope == "regional" {
		// The first top-level zone on the publisher's chain.
		target = cluster.Nodes[0].Agent().Chain()[1]
	}
	it := &news.Item{
		Publisher: "reuters", ID: "scoped", Headline: "x", Body: "y",
		Subjects: []string{"world/asia"}, Geography: "asia",
		Published: cluster.Eng.Now(),
	}
	if err := cluster.Nodes[0].PublishItem(it, target, ""); err != nil {
		return []string{scope, "error", err.Error(), ""}
	}
	cluster.RunFor(20 * time.Second)

	var delivered, forwarded int64
	for _, node := range cluster.Nodes {
		delivered += node.Delivered()
		forwarded += node.Router().Stats().Forwarded
	}
	per := "n/a"
	if delivered > 0 {
		per = fmtF(float64(forwarded) / float64(delivered))
	}
	return []string{scope, fmtI(delivered), fmtI(forwarded), per}
}
