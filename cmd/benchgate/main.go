// Command benchgate guards the perf trajectory without external tooling.
//
// Gate mode (CI): compare two BENCH_<ID>.json artifacts and fail when
// any common configuration's bytes_per_round regressed beyond 10%, or the
// per-node peak heap — when both artifacts measured the same cluster
// size — beyond -max-heap-regress. Baseline-only configurations (rows CI
// does not regenerate, like the nightly million-node point) are skipped:
//
//	benchgate -baseline old/BENCH_E1.json -current artifacts/BENCH_E1.json
//	benchgate -baseline ... -current ... -max-heap-regress 0.25
//
// Chaos artifacts (BENCH_E10.json) are gated on hard bounds instead of
// deltas: every scenario's final delivery must reach 100%, its
// during-fault delivery must stay above the scenario's own floor, and it
// must converge within the scenario's own max_rounds bound. When both
// artifacts ran at the same seed and size, each scenario's deterministic
// counts (recovery bytes, steady bytes/round, rows rejected and
// scrambled, queue drops, recovered items, materialized nodes, crashes)
// must also equal the baseline's:
//
//	benchgate -baseline old/BENCH_E10.json -current artifacts/BENCH_E10.json
//
// Observability artifacts (BENCH_E12.json) are gated intra-artifact: the
// health+trace arm may cost at most 5% more gossip bytes/round and
// ns/round than the off arm:
//
//	benchgate -baseline old/BENCH_E12.json -current artifacts/BENCH_E12.json
//
// Compare mode (benchstat fallback for `make bench-compare`): diff two
// `go test -bench` output files metric by metric:
//
//	benchgate -compare baseline.txt current.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// Bounds every make target uses at one value; the ones targets vary are flags.
const (
	maxRegress    = 0.10  // allowed fractional bytes_per_round regression (wire, E8 per label)
	minDeliver    = 1.0   // chaos: required final delivery fraction per scenario
	maxObs        = 0.05  // E12: allowed bytes/round and ns/round overhead of health+trace over off
	minRecall     = 0.999 // E8: required delivery recall per arm
	maxFPRatio    = 0.5   // E8: allowed predicate/bloom false-positive-drop ratio per subscription count
	maxBytesRatio = 1.10  // E8: allowed predicate/bloom bytes/round/node ratio per subscription count
)

func run(args []string) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	var (
		baseline   = fs.String("baseline", "", "baseline BENCH_<ID>.json")
		current    = fs.String("current", "", "current BENCH_<ID>.json")
		maxHeap    = fs.Float64("max-heap-regress", 0.10, "allowed fractional peak_heap_bytes_per_node regression")
		minMsgsSec = fs.Float64("min-msgs-per-sec", 0, "live transport: sustained msgs/sec floor per arm (0 = off)")
		maxP99     = fs.Float64("max-p99-ms", 0, "live transport: clean-p99 latency ceiling in ms per arm (0 = off)")
		compare    = fs.Bool("compare", false, "diff two `go test -bench` output files (positional args)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants exactly two bench output files, got %d", fs.NArg())
		}
		return compareBenchFiles(fs.Arg(0), fs.Arg(1))
	}
	if *baseline == "" || *current == "" {
		return fmt.Errorf("need -baseline and -current (or -compare old.txt new.txt)")
	}
	return gate(*baseline, *current, *maxHeap, *minMsgsSec, *maxP99)
}

// benchArtifact is the slice of the BENCH_<ID>.json schema the gate needs.
type benchArtifact struct {
	ID string `json:"id"`
	// The run's seed and size: chaos counts repeat exactly only between
	// artifacts that agree on all three.
	Seed  int64 `json:"seed"`
	Quick bool  `json:"quick"`
	Big   bool  `json:"big"`

	Wire []struct {
		Label         string  `json:"label"`
		BytesPerRound float64 `json:"bytes_per_round"`
	} `json:"bytes_on_wire"`
	// Per-node peak heap, comparable only between artifacts that
	// simulated the same cluster size.
	PeakHeapBytesPerNode float64 `json:"peak_heap_bytes_per_node"`
	HeapNodes            int     `json:"heap_nodes"`
	// Chaos rows (BENCH_E10.json) carry their own bounds: the scenario's
	// during-fault delivery floor and convergence-round budget.
	Chaos []chaosRow `json:"chaos"`
	// Live-transport arms (BENCH_E11.json) are gated on hard bounds:
	// sustained throughput floor, clean-p99 ceiling and zero corruption.
	Arms   []e11Arm    `json:"arms"`
	Verify []e11Verify `json:"verify"`
	// Observability arms (BENCH_E12.json) are gated on the overhead
	// ratio of the fully-enabled arm over the disabled one.
	Obs []obsArm `json:"obs"`
	// Precision rows (BENCH_E8.json) are gated intra-artifact on the
	// predicate-vs-bloom routing-precision ratios, plus a per-label
	// bytes/round/node regression bound against the baseline.
	Precision []precisionRow `json:"precision"`
}

type precisionRow struct {
	Label                string  `json:"label"`
	Mode                 string  `json:"mode"`
	Subscriptions        int     `json:"subscriptions"`
	Recall               float64 `json:"recall"`
	ExactMatches         int64   `json:"exact_matches"`
	FPDrops              int64   `json:"false_positive_drops"`
	FPRate               float64 `json:"fp_rate"`
	Forwards             int64   `json:"forwards"`
	BytesPerRoundPerNode float64 `json:"bytes_per_round_per_node"`
}

type obsArm struct {
	Label          string  `json:"label"`
	Health         bool    `json:"health"`
	Traced         bool    `json:"traced"`
	BytesPerRound  float64 `json:"bytes_per_round"`
	NsPerRound     float64 `json:"ns_per_round"`
	AllocsPerRound float64 `json:"allocs_per_round"`
	HealthNodes    int64   `json:"health_nodes"`
	// NsOverheadVsOff is the drift-cancelling paired-ratio measurement
	// (see experiments.ObsArm); it, not NsPerRound quotients, is what the
	// ns budget bounds.
	NsOverheadVsOff float64 `json:"ns_overhead_vs_off"`
}

type e11Arm struct {
	Label               string  `json:"label"`
	SustainedMsgsPerSec float64 `json:"sustained_msgs_per_sec"`
	CleanP99Ms          float64 `json:"clean_p99_ms"`
	TotalDrops          int64   `json:"total_drops"`
	TotalCorrupt        int64   `json:"total_corrupt"`
}

type e11Verify struct {
	Codec   string `json:"codec"`
	Frames  int64  `json:"frames"`
	Decoded int64  `json:"decoded"`
	Corrupt int64  `json:"corrupt"`
}

type chaosRow struct {
	Scenario            string  `json:"scenario"`
	DeliveryDuringFault float64 `json:"delivery_during_fault"`
	FinalDelivery       float64 `json:"final_delivery"`
	ConvergenceRounds   int     `json:"convergence_rounds"`
	SelfHealed          *bool   `json:"self_healed"`
	DeliveryFloor       float64 `json:"delivery_floor"`
	MaxRounds           int     `json:"max_rounds"`
	// Counts the simulator reproduces exactly at one seed and size.
	RecoveryBytes       float64 `json:"recovery_bytes"`
	SteadyBytesPerRound float64 `json:"steady_bytes_per_round"`
	RowsRejected        float64 `json:"rows_rejected"`
	RowsScrambled       float64 `json:"rows_scrambled"`
	QueueDropped        float64 `json:"queue_dropped"`
	RecoveredItems      float64 `json:"recovered_items"`
	Materialized        float64 `json:"materialized"`
	Crashes             float64 `json:"crashes"`
}

// chaosCountNames names chaosRow.counts' entries as the artifact does.
var chaosCountNames = [...]string{"recovery_bytes", "steady_bytes_per_round", "rows_rejected",
	"rows_scrambled", "queue_dropped", "recovered_items", "materialized", "crashes"}

func (r chaosRow) counts() [len(chaosCountNames)]float64 {
	return [...]float64{r.RecoveryBytes, r.SteadyBytesPerRound, r.RowsRejected,
		r.RowsScrambled, r.QueueDropped, r.RecoveredItems, r.Materialized, r.Crashes}
}

func gate(baselinePath, currentPath string, maxHeap, minMsgsSec, maxP99 float64) error {
	var base, cur benchArtifact
	if err := readJSON(baselinePath, &base); err != nil {
		return err
	}
	if err := readJSON(currentPath, &cur); err != nil {
		return err
	}
	if len(cur.Chaos) > 0 || len(base.Chaos) > 0 {
		return gateChaos(baselinePath, base, cur)
	}
	if len(cur.Arms) > 0 || len(base.Arms) > 0 {
		return gateE11(baselinePath, base, cur, minMsgsSec, maxP99)
	}
	if len(cur.Obs) > 0 || len(base.Obs) > 0 {
		return gateObs(baselinePath, base, cur)
	}
	if len(cur.Precision) > 0 || len(base.Precision) > 0 {
		return gateE8(baselinePath, base, cur)
	}
	return gateWire(baselinePath, base, cur, maxHeap)
}

// gateWire bounds each common configuration's bytes_per_round against the
// baseline by maxRegress, and the per-node peak heap by maxHeap when both
// artifacts measured it at the same cluster size.
func gateWire(baselinePath string, base, cur benchArtifact, maxHeap float64) error {
	if len(base.Wire) == 0 {
		// A pre-codec artifact has no wire section: nothing to gate
		// against yet. Report and pass so the first regenerating commit
		// can land the section.
		fmt.Printf("benchgate: baseline %s has no bytes_on_wire section; gate skipped\n", baselinePath)
		return nil
	}
	curByLabel := map[string]float64{}
	for _, w := range cur.Wire {
		curByLabel[w.Label] = w.BytesPerRound
	}
	var problems []string
	compared := 0
	for _, b := range base.Wire {
		got, ok := curByLabel[b.Label]
		if !ok {
			// The committed baseline may hold configurations CI does not
			// regenerate (the nightly 1M-node row, big-run points); gate
			// on the intersection and only fail when it is empty.
			fmt.Printf("benchgate: %-22s baseline %.0f B/round, not in current artifact; skipped\n",
				b.Label, b.BytesPerRound)
			continue
		}
		compared++
		delta := (got - b.BytesPerRound) / b.BytesPerRound
		status := "ok"
		if delta > maxRegress {
			status = fmt.Sprintf("REGRESSED beyond %.0f%%", maxRegress*100)
			problems = append(problems, fmt.Sprintf("%s bytes/round %+.1f%% > %.0f%%", b.Label, delta*100, maxRegress*100))
		}
		fmt.Printf("benchgate: %-22s %.0f -> %.0f B/round (%+.1f%%) %s\n",
			b.Label, b.BytesPerRound, got, delta*100, status)
	}
	if compared == 0 {
		return fmt.Errorf("no common bytes_on_wire labels between baseline %s and the current artifact", baselinePath)
	}
	if base.PeakHeapBytesPerNode > 0 && cur.PeakHeapBytesPerNode > 0 {
		if base.HeapNodes != cur.HeapNodes {
			fmt.Printf("benchgate: peak heap/node measured at different sizes (%d vs %d nodes); skipped\n",
				base.HeapNodes, cur.HeapNodes)
		} else {
			delta := (cur.PeakHeapBytesPerNode - base.PeakHeapBytesPerNode) / base.PeakHeapBytesPerNode
			status := "ok"
			if delta > maxHeap {
				status = fmt.Sprintf("REGRESSED beyond %.0f%%", maxHeap*100)
				problems = append(problems, fmt.Sprintf("heap/node %+.1f%% > %.0f%%", delta*100, maxHeap*100))
			}
			fmt.Printf("benchgate: heap/node @%-9d %.0f -> %.0f B (%+.1f%%) %s\n",
				base.HeapNodes, base.PeakHeapBytesPerNode, cur.PeakHeapBytesPerNode, delta*100, status)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("regression gate failed: %s (baseline %s)", strings.Join(problems, "; "), baselinePath)
	}
	return nil
}

// gateChaos enforces the adversarial suite's hard bounds on the current
// artifact: per-scenario final delivery, during-fault floor, convergence
// budget, and the self-healing oracle. The baseline supplies the expected
// scenario set (a scenario that vanishes from the current artifact fails
// the gate) and convergence deltas for the report.
func gateChaos(baselinePath string, base, cur benchArtifact) error {
	baseBy := map[string]chaosRow{}
	for _, b := range base.Chaos {
		baseBy[b.Scenario] = b
	}
	sameRun := base.Seed == cur.Seed && base.Quick == cur.Quick && base.Big == cur.Big
	if !sameRun {
		fmt.Printf("benchgate: chaos counts not compared: baseline ran seed %d quick=%v big=%v, current seed %d quick=%v big=%v\n",
			base.Seed, base.Quick, base.Big, cur.Seed, cur.Quick, cur.Big)
	}
	var failures []string
	for _, c := range cur.Chaos {
		var problems []string
		if c.FinalDelivery < minDeliver {
			problems = append(problems, fmt.Sprintf("final delivery %.4f < %.4f", c.FinalDelivery, minDeliver))
		}
		if c.DeliveryDuringFault < c.DeliveryFloor {
			problems = append(problems, fmt.Sprintf("during-fault delivery %.4f < floor %.4f", c.DeliveryDuringFault, c.DeliveryFloor))
		}
		if c.ConvergenceRounds > c.MaxRounds {
			problems = append(problems, fmt.Sprintf("convergence %d rounds > bound %d", c.ConvergenceRounds, c.MaxRounds))
		}
		if c.SelfHealed != nil && !*c.SelfHealed {
			problems = append(problems, "did not self-heal (table fingerprint differs from clean twin)")
		}
		convNote := fmt.Sprintf("conv %d/%d", c.ConvergenceRounds, c.MaxRounds)
		if b, ok := baseBy[c.Scenario]; ok {
			convNote = fmt.Sprintf("conv %d -> %d (bound %d)", b.ConvergenceRounds, c.ConvergenceRounds, c.MaxRounds)
			if sameRun {
				bc, cc := b.counts(), c.counts()
				for i, name := range chaosCountNames {
					if bc[i] != cc[i] {
						problems = append(problems, fmt.Sprintf("%s %g != baseline %g", name, cc[i], bc[i]))
					}
				}
			}
		}
		status := "ok"
		if len(problems) > 0 {
			status = "FAILED: " + strings.Join(problems, "; ")
			failures = append(failures, c.Scenario+" "+strings.Join(problems, ", "))
		}
		fmt.Printf("benchgate: %-18s final %.1f%% during %.1f%% (floor %.0f%%) %s %s\n",
			c.Scenario, c.FinalDelivery*100, c.DeliveryDuringFault*100,
			c.DeliveryFloor*100, convNote, status)
	}
	// Scenarios the baseline covered must still be covered — unless the
	// current artifact is an explicit subset run (smoke jobs pass the
	// subset's own baseline, so this only bites when the sets diverge
	// unexpectedly).
	curBy := map[string]bool{}
	for _, c := range cur.Chaos {
		curBy[c.Scenario] = true
	}
	for _, b := range base.Chaos {
		if !curBy[b.Scenario] {
			fmt.Printf("benchgate: %-18s in baseline but missing from current artifact; skipped\n", b.Scenario)
		}
	}
	if len(cur.Chaos) == 0 {
		return fmt.Errorf("current artifact has no chaos rows")
	}
	if len(failures) > 0 {
		return fmt.Errorf("chaos gate failed: %s (baseline %s)", strings.Join(failures, "; "), baselinePath)
	}
	return nil
}

// gateObs enforces the observability-overhead budget on the current
// artifact: the fully-enabled arm (health telemetry plus tracing) may
// cost at most maxObs fractional overhead over the disabled arm, in both
// gossip bytes per round and wall-clock ns per round. The comparison is
// intra-artifact — both arms ran on the same machine in the same process,
// so the ratio is stable even though the absolute ns figures are not.
// The baseline supplies context for the report only.
func gateObs(baselinePath string, base, cur benchArtifact) error {
	if len(cur.Obs) == 0 {
		return fmt.Errorf("current artifact has no observability arms")
	}
	find := func(arms []obsArm, label string) *obsArm {
		for i := range arms {
			if arms[i].Label == label {
				return &arms[i]
			}
		}
		return nil
	}
	off := find(cur.Obs, "off")
	full := find(cur.Obs, "health+trace")
	if off == nil || full == nil {
		return fmt.Errorf("current artifact is missing the off and/or health+trace arm")
	}
	var problems []string
	for _, a := range cur.Obs {
		note := ""
		if b := find(base.Obs, a.Label); b != nil && b.BytesPerRound > 0 {
			note = fmt.Sprintf(" (bytes %+.1f%% vs baseline)",
				(a.BytesPerRound-b.BytesPerRound)/b.BytesPerRound*100)
		}
		fmt.Printf("benchgate: obs %-13s %.0f B/round, %.0f ns/round, %.0f allocs/round, health nodes %d%s\n",
			a.Label, a.BytesPerRound, a.NsPerRound, a.AllocsPerRound, a.HealthNodes, note)
	}
	check := func(name string, over float64) {
		status := "ok"
		if over > maxObs {
			status = fmt.Sprintf("EXCEEDS budget %.0f%%", maxObs*100)
			problems = append(problems, fmt.Sprintf("%s overhead %+.1f%% > %.0f%%", name, over*100, maxObs*100))
		}
		fmt.Printf("benchgate: obs overhead %-10s %+.1f%% (budget %.0f%%) %s\n", name, over*100, maxObs*100, status)
	}
	if off.BytesPerRound <= 0 {
		problems = append(problems, "off arm has no bytes/round figure")
	} else {
		check("bytes/round", full.BytesPerRound/off.BytesPerRound-1)
	}
	// The ns budget bounds the paired-ratio field, not the quotient of
	// the two arms' median round times: on a shared CI machine the wall
	// clock drifts more than the 5% budget, and only the within-rep
	// ratio divides that drift out.
	check("ns/round", full.NsOverheadVsOff)
	if full.HealthNodes <= 0 {
		problems = append(problems, "health+trace arm reports no converged health rollup (health_nodes == 0)")
	}
	if len(problems) > 0 {
		return fmt.Errorf("observability gate failed: %s (baseline %s)",
			strings.Join(problems, "; "), baselinePath)
	}
	return nil
}

// gateE8 enforces the routing-precision bounds on the current artifact
// (BENCH_E8.json). Intra-artifact, per subscription count: every arm must
// hit the recall floor (equal recall is the precondition for comparing
// waste), the predicate arm's false-positive drops must stay under
// maxFPRatio of the bloom arm's, and its gossip bytes/round/node under
// maxBytesRatio of bloom's. Against the baseline, each label's
// bytes/round/node may regress at most maxRegress — the same drift bound
// the wire gate uses. The FP comparison is only meaningful when the bloom
// arm actually suffered false positives; a zero-FP bloom row passes the
// ratio vacuously.
func gateE8(baselinePath string, base, cur benchArtifact) error {
	if len(cur.Precision) == 0 {
		return fmt.Errorf("current artifact has no precision rows")
	}
	type pair struct{ bloom, pred *precisionRow }
	bySubs := map[int]*pair{}
	var problems []string
	for i := range cur.Precision {
		p := &cur.Precision[i]
		if p.Recall < minRecall {
			problems = append(problems, fmt.Sprintf("%s recall %.4f < floor %.4f", p.Label, p.Recall, minRecall))
		}
		pr := bySubs[p.Subscriptions]
		if pr == nil {
			pr = &pair{}
			bySubs[p.Subscriptions] = pr
		}
		switch p.Mode {
		case "bloom":
			pr.bloom = p
		case "predicate":
			pr.pred = p
		}
		fmt.Printf("benchgate: %-28s recall %.3f, fp drops %d (rate %.1f%%), forwards %d, %.0f B/round/node\n",
			p.Label, p.Recall, p.FPDrops, p.FPRate*100, p.Forwards, p.BytesPerRoundPerNode)
	}
	subs := make([]int, 0, len(bySubs))
	for s := range bySubs {
		subs = append(subs, s)
	}
	sort.Ints(subs)
	for _, s := range subs {
		pr := bySubs[s]
		if pr.bloom == nil || pr.pred == nil {
			problems = append(problems, fmt.Sprintf("%d subs: missing bloom and/or predicate arm", s))
			continue
		}
		if float64(pr.pred.FPDrops) > maxFPRatio*float64(pr.bloom.FPDrops) {
			problems = append(problems, fmt.Sprintf("%d subs: predicate fp drops %d > %.0f%% of bloom's %d",
				s, pr.pred.FPDrops, maxFPRatio*100, pr.bloom.FPDrops))
		}
		if pr.bloom.BytesPerRoundPerNode > 0 {
			ratio := pr.pred.BytesPerRoundPerNode / pr.bloom.BytesPerRoundPerNode
			status := "ok"
			if ratio > maxBytesRatio {
				status = fmt.Sprintf("EXCEEDS budget %.2fx", maxBytesRatio)
				problems = append(problems, fmt.Sprintf("%d subs: predicate bytes %.2fx bloom > %.2fx",
					s, ratio, maxBytesRatio))
			}
			fmt.Printf("benchgate: %6d subs predicate/bloom bytes %.2fx (budget %.2fx) %s\n",
				s, ratio, maxBytesRatio, status)
		}
	}
	// Per-label drift against the committed baseline, same bound as the
	// wire gate. Baseline-only labels (big-run points) are skipped.
	curByLabel := map[string]*precisionRow{}
	for i := range cur.Precision {
		curByLabel[cur.Precision[i].Label] = &cur.Precision[i]
	}
	for i := range base.Precision {
		b := &base.Precision[i]
		got, ok := curByLabel[b.Label]
		if !ok || b.BytesPerRoundPerNode <= 0 {
			continue
		}
		delta := (got.BytesPerRoundPerNode - b.BytesPerRoundPerNode) / b.BytesPerRoundPerNode
		status := "ok"
		if delta > maxRegress {
			status = fmt.Sprintf("REGRESSED beyond %.0f%%", maxRegress*100)
			problems = append(problems, fmt.Sprintf("%s bytes/round/node %+.1f%% vs baseline > %.0f%%",
				b.Label, delta*100, maxRegress*100))
		}
		fmt.Printf("benchgate: %-28s %.0f -> %.0f B/round/node (%+.1f%%) %s\n",
			b.Label, b.BytesPerRoundPerNode, got.BytesPerRoundPerNode, delta*100, status)
	}
	if len(problems) > 0 {
		return fmt.Errorf("precision gate failed: %s (baseline %s)",
			strings.Join(problems, "; "), baselinePath)
	}
	return nil
}

// gateE11 enforces the live-transport hard bounds on the current
// artifact: zero frame corruption everywhere (load arms and the
// full-decode verification phase), a sustained-throughput floor and a
// clean-p99 ceiling. Throughput deltas against the baseline are reported
// but never gated — wall-clock socket numbers are too machine-dependent
// for a fractional regression bound; the floor is the contract.
func gateE11(baselinePath string, base, cur benchArtifact, minMsgsSec, maxP99 float64) error {
	if len(cur.Arms) == 0 {
		return fmt.Errorf("current artifact has no live-transport arms")
	}
	baseBy := map[string]e11Arm{}
	for _, a := range base.Arms {
		baseBy[a.Label] = a
	}
	var problems []string
	for _, a := range cur.Arms {
		delta := ""
		if b, ok := baseBy[a.Label]; ok && b.SustainedMsgsPerSec > 0 {
			delta = fmt.Sprintf(" (%+.1f%% vs baseline)",
				(a.SustainedMsgsPerSec-b.SustainedMsgsPerSec)/b.SustainedMsgsPerSec*100)
		}
		fmt.Printf("benchgate: arm %-6s sustained %.0f msgs/sec%s, clean p99 %.1fms, drops %d, corrupt %d\n",
			a.Label, a.SustainedMsgsPerSec, delta, a.CleanP99Ms, a.TotalDrops, a.TotalCorrupt)
		if a.TotalCorrupt != 0 {
			problems = append(problems, fmt.Sprintf("arm %s saw %d corrupt frames", a.Label, a.TotalCorrupt))
		}
		if minMsgsSec > 0 && a.SustainedMsgsPerSec < minMsgsSec {
			problems = append(problems, fmt.Sprintf("arm %s sustained %.0f msgs/sec < floor %.0f",
				a.Label, a.SustainedMsgsPerSec, minMsgsSec))
		}
		if maxP99 > 0 && a.CleanP99Ms > maxP99 {
			problems = append(problems, fmt.Sprintf("arm %s clean p99 %.1fms > ceiling %.0fms",
				a.Label, a.CleanP99Ms, maxP99))
		}
	}
	for _, v := range cur.Verify {
		fmt.Printf("benchgate: verify %-6s %d frames, %d decoded, %d corrupt\n",
			v.Codec, v.Frames, v.Decoded, v.Corrupt)
		if v.Corrupt != 0 {
			problems = append(problems, fmt.Sprintf("codec %s saw %d corrupt frames", v.Codec, v.Corrupt))
		}
		if v.Decoded != v.Frames {
			problems = append(problems, fmt.Sprintf("codec %s decoded %d of %d frames", v.Codec, v.Decoded, v.Frames))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("live-transport gate failed: %s (baseline %s)",
			strings.Join(problems, "; "), baselinePath)
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// benchMetrics maps "BenchmarkName/arm" -> unit -> value, averaged over
// repeated runs of the same benchmark.
type benchMetrics map[string]map[string]float64

func parseBenchFile(path string) (benchMetrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := benchMetrics{}
	counts := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Strip the -<GOMAXPROCS> suffix so runs on different hosts align.
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := out[name]
		if m == nil {
			m = map[string]float64{}
			out[name] = m
		}
		counts[name]++
		// fields[1] is the iteration count; then (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			m[fields[i+1]] += v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, m := range out {
		for unit := range m {
			m[unit] /= float64(counts[name])
		}
	}
	return out, nil
}

func compareBenchFiles(oldPath, newPath string) error {
	oldM, err := parseBenchFile(oldPath)
	if err != nil {
		return err
	}
	newM, err := parseBenchFile(newPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(oldM))
	for name := range oldM {
		if _, ok := newM[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no common benchmarks between %s and %s", oldPath, newPath)
	}
	fmt.Printf("%-44s %-14s %14s %14s %8s\n", "benchmark", "unit", "old", "new", "delta")
	for _, name := range names {
		units := make([]string, 0, len(oldM[name]))
		for unit := range oldM[name] {
			if _, ok := newM[name][unit]; ok {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			o, n := oldM[name][unit], newM[name][unit]
			delta := "~"
			if o != 0 {
				delta = fmt.Sprintf("%+.1f%%", (n-o)/o*100)
			}
			fmt.Printf("%-44s %-14s %14.1f %14.1f %8s\n", name, unit, o, n, delta)
		}
	}
	return nil
}
