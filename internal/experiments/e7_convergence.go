package experiments

import (
	"fmt"

	"newswire/internal/astrolabe"
	"newswire/internal/bloom"
	"newswire/internal/core"
	"newswire/internal/pubsub"
)

// RunE7 measures how long a new leaf subscription takes to reach the root
// zone everywhere — the §3/§6 claim that "eventually (within tens of
// seconds) the root zone will have all the information on whether there
// are leaf nodes in the system that have subscribed".
func RunE7(opt Options) *Table {
	sizes := []int{64, 512, 4096}
	if opt.Quick {
		sizes = []int{64, 512}
	}
	if opt.Big {
		sizes = append(sizes, 32768)
	}
	t := &Table{
		ID:    "E7",
		Title: "gossip rounds until a new subscription reaches the root everywhere",
		Claim: "within tens of seconds the root zone has all the information (§6)",
		Columns: []string{"nodes", "levels", "rounds", "virtual time",
			"rounds(all nodes)", "KB/node/round"},
	}
	for _, n := range sizes {
		t.AddRow(runE7Size(n, opt.Seed)...)
	}
	t.Notes = append(t.Notes,
		"gossip interval 2s; 'rounds' = first round the publisher-side root row shows the bit;",
		"'rounds(all nodes)' = every node's root table shows it (full dissemination);",
		"KB/node/round = network bytes during the measured rounds / nodes / rounds")
	return t
}

func runE7Size(n int, seed int64) []string {
	// Branching 16 gives the 4096-node point a depth-2 tree, so the
	// standard table shows multi-level convergence; the huge -big points
	// use the paper's 64-row tables.
	branching := 64
	if n <= 4096 {
		branching = 16
	}
	cluster, err := core.NewCluster(core.ClusterConfig{
		N: n, Branching: branching, Seed: seed + int64(n),
	})
	if err != nil {
		return []string{fmt.Sprint(n), "error", err.Error(), "", "", ""}
	}
	// Warm up so aggregation/representative state is steady.
	cluster.RunRounds(8)

	// Flip one subscription on an arbitrary non-first node and watch the
	// bit climb.
	subject := "culture/books"
	positions := bloom.PositionsFor(subject,
		pubsub.DefaultGeometry.Bits, pubsub.DefaultGeometry.Hashes)
	flipper := cluster.Nodes[n/2]
	_ = flipper.Subscribe(subject)
	start := cluster.Eng.Now()
	bytesStart, _ := cluster.Net.BytesTotals()

	rootHasBit := func(node *core.Node) bool {
		rows, ok := node.Agent().Table(astrolabe.RootZone)
		if !ok {
			return false
		}
		for _, r := range rows {
			subs, ok := r.Attrs[astrolabe.AttrSubs].RawBytes()
			if !ok {
				continue
			}
			f, err := bloom.FromBytes(subs, pubsub.DefaultGeometry.Bits,
				pubsub.DefaultGeometry.Hashes)
			if err != nil {
				continue
			}
			if f.TestPositions(positions) {
				return true
			}
		}
		return false
	}

	firstRound, allRound, roundsRun := 0, 0, 0
	const maxRounds = 200
	for round := 1; round <= maxRounds; round++ {
		cluster.RunRounds(1)
		roundsRun = round
		if firstRound == 0 && rootHasBit(flipper) {
			firstRound = round
		}
		if firstRound != 0 {
			all := true
			for _, node := range cluster.Nodes {
				if !rootHasBit(node) {
					all = false
					break
				}
			}
			if all {
				allRound = round
				break
			}
		}
	}
	elapsed := cluster.Eng.Now().Sub(start)
	bytesEnd, _ := cluster.Net.BytesTotals()
	kbPerNodeRound := float64(bytesEnd-bytesStart) / 1024 /
		float64(n) / float64(roundsRun)
	first := "never"
	if firstRound > 0 {
		first = fmt.Sprint(firstRound)
	}
	all := "never"
	if allRound > 0 {
		all = fmt.Sprint(allRound)
	}
	return []string{
		fmt.Sprint(n),
		fmt.Sprint(treeLevels(n, branching)),
		first,
		elapsed.String(),
		all,
		fmt.Sprintf("%.2f", kbPerNodeRound),
	}
}

// convergenceRounds runs the cluster round by round until every node's
// root table reflects the given subject in some zone's aggregated Bloom
// filter, returning the round count (0 if maxRounds elapsed first).
func convergenceRounds(cluster *core.Cluster, subject string, maxRounds int) int {
	positions := bloom.PositionsFor(subject,
		pubsub.DefaultGeometry.Bits, pubsub.DefaultGeometry.Hashes)
	hasBit := func(node *core.Node) bool {
		rows, ok := node.Agent().Table(astrolabe.RootZone)
		if !ok {
			return false
		}
		for _, r := range rows {
			subs, ok := r.Attrs[astrolabe.AttrSubs].RawBytes()
			if !ok {
				continue
			}
			f, err := bloom.FromBytes(subs, pubsub.DefaultGeometry.Bits,
				pubsub.DefaultGeometry.Hashes)
			if err != nil {
				continue
			}
			if f.TestPositions(positions) {
				return true
			}
		}
		return false
	}
	for round := 1; round <= maxRounds; round++ {
		cluster.RunRounds(1)
		all := true
		for _, node := range cluster.Nodes {
			if !hasBit(node) {
				all = false
				break
			}
		}
		if all {
			return round
		}
	}
	return 0
}
