// Quickstart: a 32-node simulated NewsWire deployment in one process.
//
// It builds the cluster, subscribes a handful of nodes to a subject,
// lets the subscription Bloom filters aggregate up the zone hierarchy,
// publishes one item, and shows exactly who received it and how fast.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"newswire"
	"newswire/internal/news"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("== NewsWire quickstart: 32 simulated nodes ==")

	type delivery struct {
		node    int
		latency time.Duration
	}
	var deliveries []delivery
	var publishedAt time.Time

	var cluster *newswire.Cluster
	c, err := newswire.NewCluster(newswire.ClusterConfig{
		N:         32,
		Branching: 8,
		Seed:      2002,
		Customize: func(i int, cfg *newswire.Config) {
			node := i
			cfg.OnItem = func(it *newswire.Item, env *newswire.ItemEnvelope) {
				deliveries = append(deliveries, delivery{
					node:    node,
					latency: cluster.Eng.Now().Sub(publishedAt),
				})
			}
		},
	})
	if err != nil {
		return err
	}
	cluster = c

	// Nodes 0-15 follow Linux news; the rest follow soccer.
	for i, node := range cluster.Nodes {
		subject := "tech/linux"
		if i >= 16 {
			subject = "sports/soccer"
		}
		if err := node.Subscribe(subject); err != nil {
			return err
		}
	}
	fmt.Println("16 nodes subscribed to tech/linux, 16 to sports/soccer")

	// Let the subscription summaries gossip up to the root.
	fmt.Print("gossiping subscription state")
	cluster.RunRounds(10)
	fmt.Println(" ... done (20s of virtual time)")

	// Publish one Linux story from node 5.
	publishedAt = cluster.Eng.Now()
	item := &news.Item{
		Publisher: "slashdot",
		ID:        "kernel-2.6",
		Headline:  "Linux 2.6 kernel released",
		Abstract:  "After years of development, 2.6 ships.",
		Body:      "Full story text here.",
		Subjects:  []string{"tech/linux"},
		Urgency:   3,
		Published: publishedAt,
	}
	if err := cluster.Nodes[5].PublishItem(item, "", ""); err != nil {
		return err
	}
	fmt.Printf("node 5 published %s\n", item.Key())

	cluster.RunFor(10 * time.Second)

	fmt.Printf("\ndelivered to %d nodes:\n", len(deliveries))
	var worst time.Duration
	for _, d := range deliveries {
		if d.latency > worst {
			worst = d.latency
		}
	}
	for _, d := range deliveries[:min(5, len(deliveries))] {
		fmt.Printf("  node %-2d after %v\n", d.node, d.latency.Round(time.Millisecond))
	}
	if len(deliveries) > 5 {
		fmt.Printf("  ... and %d more\n", len(deliveries)-5)
	}
	fmt.Printf("worst-case latency: %v (virtual time)\n", worst.Round(time.Millisecond))

	// Nobody outside the subscription got it.
	missed := 0
	for i := 16; i < 32; i++ {
		if cluster.Nodes[i].Delivered() != 0 {
			missed++
		}
	}
	fmt.Printf("soccer subscribers who received the Linux item: %d (want 0)\n", missed)
	return nil
}
