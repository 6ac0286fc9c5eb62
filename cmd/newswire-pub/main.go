// Command newswire-pub publishes news items into a live NewsWire cluster.
// It runs a short-lived publisher node (§8: "Under the covers of the
// publisher is an application identical to the subscriber application
// core"), joins through a peer, and publishes either a single item from
// flags or a whole RSS file through the bootstrap agent of §10.
//
// Publish one item:
//
//	newswire-pub -peers 127.0.0.1:9001 -publisher slashdot \
//	    -subject tech/linux -headline "Kernel released" -body "..."
//
// Publish an RSS file:
//
//	newswire-pub -peers 127.0.0.1:9001 -publisher slashdot -rss feed.xml
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"newswire"
	"newswire/internal/feed"
	"newswire/internal/news"
	"newswire/internal/pubsub"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "newswire-pub:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("newswire-pub", flag.ContinueOnError)
	var (
		peers     = fs.String("peers", "", "comma-separated seed peer addresses (required)")
		zone      = fs.String("zone", "/default", "leaf zone to join")
		mode      = fs.String("mode", "", "cluster subscription-summary mode: "+pubsub.ModeNames()+" (default bloom) — must match the subscribers")
		publisher = fs.String("publisher", "", "publisher name (required)")
		scope     = fs.String("scope", "/", "dissemination scope zone (§8)")
		predicate = fs.String("predicate", "", "forwarding predicate over zone attributes (§8)")

		itemID   = fs.String("id", "", "item ID (default derived from time)")
		subject  = fs.String("subject", "", "item subject, e.g. tech/linux")
		headline = fs.String("headline", "", "item headline")
		body     = fs.String("body", "", "item body")
		urgency  = fs.Int("urgency", 5, "NITF urgency 1 (flash) .. 8 (routine)")

		rssFile = fs.String("rss", "", "publish all new entries of this RSS file instead")
		settle  = fs.Duration("settle", 6*time.Second, "time to gossip before/after publishing")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *peers == "" {
		return fmt.Errorf("-peers is required")
	}
	if *publisher == "" {
		return fmt.Errorf("-publisher is required")
	}

	summaryMode, err := newswire.ParseMode(*mode)
	if err != nil {
		return err
	}
	ln, err := newswire.StartLive(newswire.LiveConfig{
		Node:  newswire.Config{ZonePath: *zone, Mode: summaryMode},
		Peers: strings.Split(*peers, ","),
	})
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("publisher node on %s, joining %s\n", ln.Addr(), *peers)

	// Let gossip build enough routing state to publish through.
	time.Sleep(*settle)

	var items []*news.Item
	if *rssFile != "" {
		data, err := os.ReadFile(*rssFile)
		if err != nil {
			return err
		}
		channel, err := feed.ParseRSS(data)
		if err != nil {
			return err
		}
		agent, err := feed.NewAgent(*publisher, nil)
		if err != nil {
			return err
		}
		items = agent.Transform(channel, time.Now())
		fmt.Printf("transformed %d items from %s\n", len(items), *rssFile)
	} else {
		if *subject == "" || *headline == "" {
			return fmt.Errorf("-subject and -headline are required without -rss")
		}
		id := *itemID
		if id == "" {
			id = fmt.Sprintf("item-%d", time.Now().UnixNano())
		}
		items = []*news.Item{{
			Publisher: *publisher,
			ID:        id,
			Headline:  *headline,
			Body:      *body,
			Subjects:  strings.Split(*subject, ","),
			Urgency:   *urgency,
			Published: time.Now(),
		}}
	}

	for _, it := range items {
		if err := ln.Node().PublishItem(it, *scope, *predicate); err != nil {
			return fmt.Errorf("publish %s: %w", it.Key(), err)
		}
		fmt.Printf("published %s: %s\n", it.Key(), it.Headline)
	}

	// Stay up long enough for forwards to drain.
	time.Sleep(*settle)
	return nil
}
