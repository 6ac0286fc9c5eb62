// Package chaos is a composable, seed-deterministic adversarial scenario
// driver for the newswire simulation. A Scenario is a schedule of typed
// events — region partitions, Poisson churn storms with §9 rejoin
// recovery, zipf-skewed publish bursts, link-loss ramps, and state
// scrambling that corrupts zone-table rows, dedup marks and retransmit
// queues mid-run — applied between gossip rounds of a core.Cluster. The
// driver measures delivery during the fault window, counts the rounds
// needed to converge back to 100% delivery, and reports the bytes spent
// recovering.
//
// Every random draw comes from one of three owned streams (event schedule,
// scramble victims, key entropy), consumed in canonical order between
// rounds, so a scenario is bit-identical for a given seed under both the
// serial engine and the parallel executor. Scramble events draw from their
// own stream so a "clean twin" run — same seed, scrambles skipped — sees
// the exact same faults, publishes and churn; comparing final table
// fingerprints against the twin is the self-healing oracle.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"newswire/internal/core"
	"newswire/internal/news"
	"newswire/internal/pubsub"
	"newswire/internal/vtime"
	"newswire/internal/workload"
)

// EventKind enumerates the fault and load injections a Scenario can
// schedule.
type EventKind int

// Event kinds.
const (
	// PartitionRegions splits the cluster into two regions: the members
	// of leaf zones [0, Split) versus everyone else. At most one
	// partition may be active at a time.
	PartitionRegions EventKind = iota + 1
	// HealPartition removes the active partition.
	HealPartition
	// ChurnStorm crashes a Poisson(Rate)-distributed number of random
	// non-publisher members per active round; each victim rejoins after
	// DownRounds rounds via §9 state transfer. A victim that is still a
	// virtual leaf is materialized first — crashing a template row would
	// silently test nothing.
	ChurnStorm
	// PublishBurst publishes Count items per active round from node 0,
	// with subjects drawn zipf(ZipfS)-skewed from the scenario's subject
	// pool (hot keys).
	PublishBurst
	// LinkLossRamp ramps the global link loss linearly from its base
	// value up to Rate over the event's rounds, then restores the base.
	LinkLossRamp
	// ScrambleState corrupts a Frac fraction of every live node's zone-
	// table rows (stale-stamped, stale-signed mutations plus attribute
	// permutations) and drops a Frac fraction of its item table's routing
	// marks and of its retransmit-queue entries. Corrupted rows must lose to fresh owner
	// heartbeats (open mode) or be rejected by certificate verification
	// (secure mode); the run must still converge to 100% delivery.
	ScrambleState
)

// Event is one scheduled injection. Round is the gossip round (0-based,
// counted from the end of warmup) at which the event starts; Rounds is how
// many consecutive rounds it stays active (default 1).
type Event struct {
	Kind   EventKind
	Round  int
	Rounds int
	// Split is the leaf-zone count of region A (PartitionRegions).
	Split int
	// Rate is the Poisson mean crashes/round (ChurnStorm) or the peak
	// loss probability (LinkLossRamp).
	Rate float64
	// DownRounds is how long a churn victim stays down (default 1).
	DownRounds int
	// Count is the items per active round (PublishBurst).
	Count int
	// ZipfS is the zipf exponent for subject selection (default 1.2).
	ZipfS float64
	// Frac is the per-row/per-entry scramble probability (ScrambleState).
	Frac float64
}

// Scenario is a named, self-contained adversarial run: cluster shape,
// event schedule, and the convergence bounds benchgate enforces.
type Scenario struct {
	Name      string
	Nodes     int
	Branching int
	// VirtualLeaves packs quiescent members into template rows + delivery
	// bitsets; churn storms materialize victims on demand.
	VirtualLeaves bool
	// Security runs with certificates: signed rows and items, verification
	// everywhere. Scrambled rows then fail signature checks at peers.
	Security bool
	// Predicate runs the cluster in pubsub.ModePredicate so the chaos
	// gates cover the §7 predicate routing path: compiled signatures,
	// subgroup rows (and their scrambled/healed forms) and the fail-open
	// forward on unreadable subgroup attributes.
	Predicate          bool
	AckTimeout         time.Duration
	MaxForwardAttempts int
	// Warmup rounds run before round 0 of the event schedule.
	Warmup int
	Events []Event
	// MaxRounds bounds the convergence phase after the last fault clears;
	// benchgate fails a run that needs more.
	MaxRounds int
	// QuietRounds run after convergence before the table fingerprint is
	// taken (lets scrambled rows finish healing).
	QuietRounds int
	// DeliveryFloor is the minimum acceptable delivery fraction among
	// live members at any point during the fault window.
	DeliveryFloor float64
	// Subjects is the subscription pool; every member subscribes to all
	// of them (burst subjects are zipf-drawn from this pool).
	Subjects []string
	// SeedOffset decorrelates this scenario from others at the same seed.
	SeedOffset int64
}

// Options are per-invocation knobs shared by all scenarios in a run.
type Options struct {
	Seed int64
	// Workers selects the parallel executor (0 = serial, -1 = all cores).
	Workers int
}

// Result is one scenario's measured outcome, shaped for BENCH_E10.json.
type Result struct {
	Scenario string `json:"scenario"`
	Nodes    int    `json:"nodes"`
	Items    int    `json:"items"`
	// DeliveryDuringFault is the worst live-member delivery fraction
	// observed at any round boundary inside the fault window.
	DeliveryDuringFault float64 `json:"delivery_during_fault"`
	// FinalDelivery is total delivered / (members × items) at run end.
	FinalDelivery float64 `json:"final_delivery"`
	// ConvergenceRounds is how many rounds past the last fault the run
	// needed to get every member to 100% delivery (MaxRounds+1 = never).
	ConvergenceRounds int `json:"convergence_rounds"`
	// RecoveryBytes is the wire bytes sent between the last fault
	// clearing and the convergence point.
	RecoveryBytes       int64   `json:"recovery_bytes"`
	SteadyBytesPerRound float64 `json:"steady_bytes_per_round"`
	RowsRejected        int64   `json:"rows_rejected"`
	RowsScrambled       int     `json:"rows_scrambled"`
	QueueDropped        int     `json:"queue_dropped"`
	Recovered           int64   `json:"recovered_items"`
	Materialized        int     `json:"materialized"`
	Crashes             int     `json:"crashes"`
	// SelfHealed is set for scenarios with ScrambleState events: true
	// when the final table fingerprint matches a never-scrambled twin
	// run's and delivery still reached 100%.
	SelfHealed *bool `json:"self_healed,omitempty"`
	// DeliveryFloor and MaxRounds echo the scenario's bounds so benchgate
	// can enforce them without a side channel.
	DeliveryFloor float64 `json:"delivery_floor"`
	MaxRounds     int     `json:"max_rounds"`
}

// Run executes the scenario and, when it scrambles state, a clean twin
// (same seed, scrambles skipped) whose final table fingerprint defines
// the self-healing oracle.
func Run(sc Scenario, opt Options) (*Result, error) {
	res, fp, err := runOnce(sc, opt, false)
	if err != nil {
		return nil, err
	}
	if hasKind(sc, ScrambleState) {
		_, cleanFp, err := runOnce(sc, opt, true)
		if err != nil {
			return nil, fmt.Errorf("chaos: clean twin: %w", err)
		}
		healed := fp == cleanFp && res.FinalDelivery >= 1
		res.SelfHealed = &healed
	}
	return res, nil
}

func hasKind(sc Scenario, k EventKind) bool {
	for _, ev := range sc.Events {
		if ev.Kind == k {
			return true
		}
	}
	return false
}

// runOnce drives one full scenario execution and returns its result plus
// the final table fingerprint. skipScramble elides ScrambleState events
// without consuming any shared randomness (scrambles own their stream),
// producing the clean twin.
func runOnce(sc Scenario, opt Options, skipScramble bool) (*Result, uint64, error) {
	if sc.Nodes <= 0 || len(sc.Subjects) == 0 {
		return nil, 0, fmt.Errorf("chaos: scenario %q needs nodes and subjects", sc.Name)
	}
	branching := sc.Branching
	if branching <= 0 {
		branching = 16
	}
	seed := opt.Seed + sc.SeedOffset
	// Three owned streams: the event schedule (churn victims, zipf
	// subjects, crash delays), scramble victims, and certificate key
	// entropy. Distinct derivations keep them independent, and the
	// scramble stream's isolation is what lets the clean twin skip
	// scrambles without shifting any other draw.
	eventRng := rand.New(rand.NewSource(seed*31 + 17))
	scrambleRng := rand.New(rand.NewSource(seed*131 + 7))

	var realm *core.Realm
	if sc.Security {
		// The realm clock is pinned at the epoch: certificate expiry
		// checks run on worker goroutines inside parallel windows, so the
		// realm must not share the engine clock. A fixed vtime.Virtual is
		// lock-protected and never advanced; the long TTL outlives any
		// simulated run.
		entropy := rand.New(rand.NewSource(seed*257 + 3))
		r, err := core.NewSeededRealm(vtime.NewVirtual(), 1000*time.Hour, entropy)
		if err != nil {
			return nil, 0, fmt.Errorf("chaos: realm: %w", err)
		}
		realm = r
	}

	var secErr error
	cfg := core.ClusterConfig{
		N: sc.Nodes, Branching: branching, Seed: seed, Workers: opt.Workers,
		Customize: func(i int, ncfg *core.Config) {
			ncfg.AckTimeout = sc.AckTimeout
			if sc.MaxForwardAttempts > 0 {
				ncfg.MaxForwardAttempts = sc.MaxForwardAttempts
			}
			// Rejoiners re-offer recovered items to their leaf zone so
			// members behind them (virtual bitsets included) catch up.
			ncfg.ReshareRecovered = true
			if sc.Predicate {
				ncfg.Mode = pubsub.ModePredicate
			}
			if realm != nil {
				sec, err := realm.Member(fmt.Sprintf("node-%d", i))
				if err != nil {
					secErr = err
					return
				}
				if i == 0 {
					if err := realm.Publisher(sec, "reuters"); err != nil {
						secErr = err
						return
					}
				}
				ncfg.Security = sec
			}
		},
	}
	if sc.VirtualLeaves {
		cfg.VirtualSubjects = sc.Subjects
	}
	cluster, err := core.NewCluster(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("chaos: scenario %q: %w", sc.Name, err)
	}
	if secErr != nil {
		return nil, 0, fmt.Errorf("chaos: scenario %q: %w", sc.Name, secErr)
	}
	if !sc.VirtualLeaves {
		for _, node := range cluster.Nodes {
			if err := node.Subscribe(sc.Subjects...); err != nil {
				return nil, 0, fmt.Errorf("chaos: subscribe: %w", err)
			}
		}
	}

	warmup := sc.Warmup
	if warmup <= 0 {
		warmup = 8
	}
	cluster.RunRounds(warmup)
	warmSent, _ := cluster.Net.BytesTotals()

	st := &runState{
		sc: sc, cluster: cluster, branching: branching,
		eventRng: eventRng, scrambleRng: scrambleRng,
		skipScramble: skipScramble,
		baseLoss:     cluster.Net.LossRate(),
		downUntil:    make(map[int]int),
		minDelivery:  1,
	}
	if err := st.runFaultWindow(); err != nil {
		return nil, 0, err
	}
	res, err := st.converge()
	if err != nil {
		return nil, 0, err
	}
	res.SteadyBytesPerRound = float64(warmSent) / float64(warmup)

	quiet := sc.QuietRounds
	if quiet <= 0 {
		quiet = 3
	}
	cluster.RunRounds(quiet)
	return res, fingerprintCluster(cluster), nil
}

// runState carries the mutable driver state across the fault window and
// convergence phases.
type runState struct {
	sc           Scenario
	cluster      *core.Cluster
	branching    int
	eventRng     *rand.Rand
	scrambleRng  *rand.Rand
	skipScramble bool
	baseLoss     float64

	items       int // items published so far
	itemSeq     int
	crashes     int
	materialize int
	scrambled   int
	dropped     int
	minDelivery float64

	downUntil map[int]int // node index -> round at which to restore
	partA     []string    // active partition, region A addresses
	partB     []string
}

// runFaultWindow applies the event schedule round by round until every
// event has finished and every churned node has rejoined.
func (st *runState) runFaultWindow() error {
	lastActive := 0
	for _, ev := range st.sc.Events {
		end := ev.Round + max(ev.Rounds, 1)
		if ev.Kind == LinkLossRamp {
			end++ // the round after the ramp restores the base loss
		}
		if end > lastActive {
			lastActive = end
		}
	}
	for r := 0; ; r++ {
		st.restoreDue(r)
		if r >= lastActive && len(st.downUntil) == 0 {
			return nil
		}
		for _, ev := range st.sc.Events {
			if err := st.applyEvent(ev, r); err != nil {
				return err
			}
		}
		st.cluster.RunRounds(1)
		st.observeDelivery()
	}
}

// restoreDue rejoins every churn victim whose downtime expires at round r:
// the endpoint is restored and the node runs the §9 recovery protocol
// (state transfer from a zone peer's cache, since its last-seen stamp).
func (st *runState) restoreDue(r int) {
	var due []int
	for idx, until := range st.downUntil {
		if until <= r {
			due = append(due, idx)
		}
	}
	sort.Ints(due)
	for _, idx := range due {
		delete(st.downUntil, idx)
		st.cluster.Net.Restore(fmt.Sprintf("n%d", idx))
		_ = st.cluster.Nodes[idx].RecoverFromZonePeer(st.items*2 + 32)
	}
}

func (st *runState) applyEvent(ev Event, r int) error {
	dur := max(ev.Rounds, 1)
	step := r - ev.Round
	if ev.Kind == LinkLossRamp && step == dur {
		st.cluster.Net.SetLossRate(st.baseLoss)
		return nil
	}
	if step < 0 || step >= dur {
		return nil
	}
	switch ev.Kind {
	case PartitionRegions:
		return st.applyPartition(ev)
	case HealPartition:
		if st.partA != nil {
			st.cluster.Net.Heal(st.partA, st.partB)
			st.partA, st.partB = nil, nil
		}
	case ChurnStorm:
		return st.applyChurn(ev, r)
	case PublishBurst:
		return st.applyBurst(ev)
	case LinkLossRamp:
		frac := float64(step+1) / float64(dur)
		st.cluster.Net.SetLossRate(st.baseLoss + (ev.Rate-st.baseLoss)*frac)
	case ScrambleState:
		st.applyScramble(ev)
	default:
		return fmt.Errorf("chaos: unknown event kind %d", ev.Kind)
	}
	return nil
}

func (st *runState) applyPartition(ev Event) error {
	if st.partA != nil {
		return fmt.Errorf("chaos: overlapping partitions")
	}
	cut := ev.Split * st.branching
	if cut <= 0 || cut >= st.sc.Nodes {
		return fmt.Errorf("chaos: partition split %d out of range", ev.Split)
	}
	var a, b []string
	for i := 0; i < st.sc.Nodes; i++ {
		addr := fmt.Sprintf("n%d", i)
		if i < cut {
			a = append(a, addr)
		} else {
			b = append(b, addr)
		}
	}
	st.cluster.Net.Partition(a, b)
	st.partA, st.partB = a, b
	return nil
}

// applyChurn crashes poisson(Rate) members this round. A victim that is
// still a virtual leaf is materialized first — the template row cannot
// crash, and a storm that silently skipped virtual members would overstate
// robustness.
func (st *runState) applyChurn(ev Event, r int) error {
	k := poisson(st.eventRng, ev.Rate)
	for j := 0; j < k; j++ {
		idx := 1 + st.eventRng.Intn(st.sc.Nodes-1) // never the publisher
		if _, down := st.downUntil[idx]; down {
			continue
		}
		if st.cluster.Nodes[idx] == nil {
			node, err := st.cluster.MaterializeNode(idx)
			if err != nil || node == nil {
				return fmt.Errorf("chaos: churn victim %d not materialized: %v", idx, err)
			}
			st.materialize++
		}
		delay := time.Duration(1 + st.eventRng.Int63n(int64(500*time.Millisecond)))
		st.cluster.Net.CrashAfter(fmt.Sprintf("n%d", idx), delay)
		st.downUntil[idx] = r + max(ev.DownRounds, 1)
		st.crashes++
	}
	return nil
}

func (st *runState) applyBurst(ev Event) error {
	s := ev.ZipfS
	if s <= 0 {
		s = 1.2
	}
	pub := st.cluster.Nodes[0]
	now := st.cluster.Eng.Now()
	for j := 0; j < ev.Count; j++ {
		subj := st.sc.Subjects[workload.ZipfIndex(st.eventRng, len(st.sc.Subjects), s)]
		it := &news.Item{
			Publisher: "reuters", ID: fmt.Sprintf("chaos-%d", st.itemSeq),
			Headline: "h", Body: "chaos burst payload",
			Subjects:  []string{subj},
			Published: now,
		}
		if err := pub.PublishItem(it, "", ""); err != nil {
			return fmt.Errorf("chaos: publish: %w", err)
		}
		st.itemSeq++
		st.items++
	}
	return nil
}

// applyScramble corrupts every live real node's state in ascending index
// order, drawing only from the scramble stream.
func (st *runState) applyScramble(ev Event) {
	if st.skipScramble {
		return
	}
	for idx, node := range st.cluster.Nodes {
		if node == nil {
			continue
		}
		if _, down := st.downUntil[idx]; down {
			continue
		}
		rep := node.ScrambleState(st.scrambleRng, ev.Frac)
		st.scrambled += rep.Rows
		st.dropped += rep.Dedup + rep.Pending
	}
}

// observeDelivery tracks the worst live-member delivery fraction seen at
// any round boundary inside the fault window.
func (st *runState) observeDelivery() {
	if st.items == 0 {
		return
	}
	live := 0
	var got int64
	for i := 0; i < st.sc.Nodes; i++ {
		if _, down := st.downUntil[i]; down {
			continue
		}
		live++
		got += st.cluster.NodeDelivered(i)
	}
	if live == 0 {
		return
	}
	frac := float64(got) / float64(int64(live)*int64(st.items))
	if frac < st.minDelivery {
		st.minDelivery = frac
	}
}

// converge runs exactly MaxRounds post-fault rounds (a fixed length keeps
// the clean twin's table history comparable), recording the first round at
// which every member has every item. Nodes still missing items run §9
// recovery between rounds — incremental first, escalating to a full
// Resync after resyncAfter rounds; in virtual clusters, a zone whose
// bitsets have holes gets its items re-offered by its first real member.
func (st *runState) converge() (*Result, error) {
	cluster := st.cluster
	want := int64(st.sc.Nodes) * int64(st.items)
	sentAtFaultEnd, _ := cluster.Net.BytesTotals()
	convRound := -1
	var recoveryBytes int64
	if st.totalDelivered() >= want {
		convRound = 0
	}
	for i := 1; i <= st.sc.MaxRounds; i++ {
		if convRound < 0 {
			st.recoveryPass(i)
		}
		cluster.RunRounds(1)
		if convRound < 0 && st.totalDelivered() >= want {
			convRound = i
			sent, _ := cluster.Net.BytesTotals()
			recoveryBytes = sent - sentAtFaultEnd
		}
	}
	total := st.totalDelivered()
	if convRound < 0 {
		convRound = st.sc.MaxRounds + 1
		sent, _ := cluster.Net.BytesTotals()
		recoveryBytes = sent - sentAtFaultEnd
	}
	final := 1.0
	if want > 0 {
		final = float64(total) / float64(want)
	}
	if final > 1.0000001 {
		return nil, fmt.Errorf("chaos: scenario %q delivered %.4f > 100%% — accounting bug", st.sc.Name, final)
	}

	var rejected, recovered int64
	for _, node := range cluster.Nodes {
		if node == nil {
			continue
		}
		rejected += node.Agent().Stats().RowsRejected
		recovered += node.Recovered()
	}
	return &Result{
		Scenario:            st.sc.Name,
		Nodes:               st.sc.Nodes,
		Items:               st.items,
		DeliveryDuringFault: st.minDelivery,
		FinalDelivery:       final,
		ConvergenceRounds:   convRound,
		RecoveryBytes:       recoveryBytes,
		RowsRejected:        rejected,
		RowsScrambled:       st.scrambled,
		QueueDropped:        st.dropped,
		Recovered:           recovered,
		Materialized:        st.materialize,
		Crashes:             st.crashes,
		DeliveryFloor:       st.sc.DeliveryFloor,
		MaxRounds:           st.sc.MaxRounds,
	}, nil
}

func (st *runState) totalDelivered() int64 {
	var n int64
	for i := 0; i < st.sc.Nodes; i++ {
		n += st.cluster.NodeDelivered(i)
	}
	return n
}

// resyncAfter is the convergence round at which recovery escalates from
// the incremental lastSeen-watermark protocol to a full Resync: a node
// still missing items after two incremental passes is likely stuck on a
// hole older than its watermark (a whole zone that exhausted its
// retransmit budget on one mid-partition item, then kept delivering
// later publications).
const resyncAfter = 3

func (st *runState) recoveryPass(round int) {
	for idx, node := range st.cluster.Nodes {
		if node == nil {
			continue
		}
		if st.cluster.NodeDelivered(idx) < int64(st.items) {
			if round >= resyncAfter {
				_ = node.Resync(st.items*2 + 32)
			} else {
				_ = node.RecoverFromZonePeer(st.items*2 + 32)
			}
		}
	}
	if !st.sc.VirtualLeaves {
		return
	}
	// Virtual members cannot run recovery themselves: their bitsets only
	// fill from Deliver copies. The zone's first member (always real)
	// re-offers its cached items into the zone; receiver-side dedup makes
	// repeats free.
	b := st.branching
	for z := 0; z*b < st.sc.Nodes; z++ {
		first := z * b
		size := min(b, st.sc.Nodes-first)
		var got int64
		for i := first; i < first+size; i++ {
			got += st.cluster.NodeDelivered(i)
		}
		if got >= int64(size)*int64(st.items) {
			continue
		}
		member := st.cluster.Nodes[first]
		if member == nil {
			continue
		}
		envs, _ := member.Cache().Since(time.Time{}, st.sc.Subjects, 0)
		for i := range envs {
			member.Router().Reinject(&envs[i])
		}
	}
}

// fingerprintCluster folds every real node's zone-table fingerprint (in
// index order) into one value. Row stamps and signatures are excluded at
// the agent level, so two runs that converged to the same table contents
// fingerprint equal even with different gossip histories.
func fingerprintCluster(c *core.Cluster) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> uint(s)) & 0xff
			h *= prime64
		}
	}
	for i, node := range c.Nodes {
		if node == nil {
			continue
		}
		mix(uint64(i))
		mix(node.Agent().FingerprintTables())
	}
	return h
}

// poisson draws a Poisson(lambda) variate (Knuth's multiplication method;
// the rates used here are small, so the loop is short).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
