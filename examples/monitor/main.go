// Monitor: Astrolabe as an infrastructure-management service (paper §4) —
// independent of news delivery, the same substrate monitors and aggregates
// live operational state: "the availability and configuration of local
// communication paths, as well as performance measurements of local
// networking and computing elements", with aggregation functions that
// "offer real-time guidance concerning which elements are in the min/max
// category, and hence represent targets for new operations".
//
// The demo runs 24 agents in three zones, each exporting cpu load, free
// memory, and a link-latency measurement. A custom aggregation program
// summarizes min/max/avg per zone and elects the best target for new work;
// the operator reads the whole deployment's state from any single node's
// root table.
//
// Run with: go run ./examples/monitor
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"newswire"
	"newswire/internal/astrolabe"
	"newswire/internal/metrics"
	"newswire/internal/sqlagg"
	"newswire/internal/value"
)

// managementProgram is §4's management-flavoured aggregation: capacity
// summaries plus a "best target" election by free memory.
var managementProgram = sqlagg.MustParse(`SELECT
	SUM(COALESCE(nmembers, 1)) AS nmembers,
	REPS(3, load, COALESCE(reps, addr)) AS reps,
	MINV(load, addr) AS addr,
	MIN(load) AS load,
	AVG(cpu) AS cpu,
	MAX(cpu) AS max_cpu,
	SUM(free_mb) AS free_mb,
	MAX(latency_ms) AS worst_latency_ms,
	MAXV(free_mb, addr) AS best_target,
	BIT_OR(subs) AS subs`)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("== Astrolabe infrastructure monitoring (paper §4) ==")

	cluster, err := newswire.NewCluster(newswire.ClusterConfig{
		N:         24,
		Branching: 8,
		Seed:      4,
		Customize: func(i int, cfg *newswire.Config) {
			cfg.Aggregation = managementProgram
		},
	})
	if err != nil {
		return err
	}

	// Each node exports its (synthetic) operational metrics and keeps
	// refreshing them — machine 7 is overloaded, machine 16 is idle.
	rng := rand.New(rand.NewSource(99))
	report := func() {
		for i, node := range cluster.Nodes {
			cpu := 0.2 + 0.1*rng.Float64()
			freeMB := int64(2000 + rng.Intn(500))
			switch i {
			case 7:
				cpu = 0.97
				freeMB = 60
			case 16:
				cpu = 0.02
				freeMB = 7800
			}
			node.Agent().SetAttrs(value.Map{
				"cpu":        value.Float(cpu),
				"free_mb":    value.Int(freeMB),
				"latency_ms": value.Float(5 + 40*rng.Float64()),
			})
		}
	}
	report()
	cluster.RunRounds(4)
	report()
	cluster.RunRounds(8)

	// Any node answers deployment-wide questions from its root table.
	observer := cluster.Nodes[23]
	rows, _ := observer.Agent().Table(astrolabe.RootZone)
	fmt.Printf("\noperator view from node 23 (%d top-level zones):\n\n", len(rows))
	fmt.Printf("%-6s %-8s %-8s %-8s %-10s %-12s %s\n",
		"zone", "members", "avg cpu", "max cpu", "free MB", "worst lat", "best target")
	var totalFree, totalMembers int64
	for _, r := range rows {
		members, _ := r.Attrs["nmembers"].AsInt()
		avgCPU, _ := r.Attrs["cpu"].AsFloat()
		maxCPU, _ := r.Attrs["max_cpu"].AsFloat()
		free, _ := r.Attrs["free_mb"].AsInt()
		lat, _ := r.Attrs["worst_latency_ms"].AsFloat()
		best, _ := r.Attrs["best_target"].AsString()
		fmt.Printf("%-6s %-8d %-8.2f %-8.2f %-10d %-12.1f %s\n",
			r.Name, members, avgCPU, maxCPU, free, lat, best)
		totalFree += free
		totalMembers += members
	}
	fmt.Printf("\nwhole deployment: %d machines, %d MB free aggregate\n",
		totalMembers, totalFree)

	// The min/max election the paper describes: where should new work go?
	bestZone, bestTarget, bestFree := "", "", int64(-1)
	for _, r := range rows {
		if free, _ := r.Attrs["free_mb"].AsInt(); free > bestFree {
			bestFree = free
			bestZone = r.Name
			bestTarget, _ = r.Attrs["best_target"].AsString()
		}
	}
	fmt.Printf("placement guidance: zone %s, machine %s (most free memory)\n",
		bestZone, bestTarget)

	// Overload detection: any zone with max cpu > 0.9 has a hot machine.
	for _, r := range rows {
		if maxCPU, _ := r.Attrs["max_cpu"].AsFloat(); maxCPU > 0.9 {
			fmt.Printf("alert: zone %s contains a machine above 90%% cpu\n", r.Name)
		}
	}

	// The monitoring substrate also watches itself: delta anti-entropy
	// keeps the gossip that carries all the state above cheap. Summed
	// across the deployment the counters show mostly digest entries
	// (tiny) and comparatively few full rows.
	var gossips, gossipBytes, rowsSent, digests int64
	for _, node := range cluster.Nodes {
		st := node.Agent().Stats()
		gossips += st.GossipsSent
		gossipBytes += st.GossipBytesSent
		rowsSent += st.RowsSent
		digests += st.DigestsSent
	}
	fmt.Printf("\ngossip traffic so far: %d exchanges, %.1f KB, %d full rows, %d digest entries\n",
		gossips, float64(gossipBytes)/1024, rowsSent, digests)

	// A single node's view of the same counters, through the metrics
	// registry an operator would scrape.
	reg := metrics.NewRegistry()
	observer.FillMetrics(reg)
	fmt.Println("\nnode 23 metrics registry:")
	if _, err := reg.WriteTo(os.Stdout); err != nil {
		return err
	}

	// The monitoring state keeps converging as metrics change: idle
	// machine 16 gets busy, and within a few rounds every root table
	// reflects it.
	cluster.Nodes[16].Agent().SetAttrs(value.Map{
		"cpu":     value.Float(0.99),
		"free_mb": value.Int(100),
	})
	cluster.RunRounds(6)
	rows, _ = observer.Agent().Table(astrolabe.RootZone)
	fmt.Println("\nafter machine 16 becomes busy:")
	for _, r := range rows {
		maxCPU, _ := r.Attrs["max_cpu"].AsFloat()
		best, _ := r.Attrs["best_target"].AsString()
		fmt.Printf("  zone %s: max cpu %.2f, best target now %s\n", r.Name, maxCPU, best)
	}
	return nil
}
