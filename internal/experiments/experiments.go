// Package experiments implements one runner per simulated experiment in
// DESIGN.md's experiment index (E1–E8, E10, E12 and ablations A2–A3; All
// lists them). The paper is a position paper with no numbered tables or
// figures, so each experiment reproduces one quantitative claim;
// EXPERIMENTS.md records claim vs. measurement.
//
// Runners are deterministic given Options.Seed and are shared by the
// cmd/newswire-bench binary and the root-level testing.B benchmarks.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"newswire/internal/sim/chaos"
)

// Options scales experiment size.
type Options struct {
	// Quick shrinks every experiment for CI and benchmarks.
	Quick bool
	// Big enables the largest configurations (the 131072-node E1 point).
	Big bool
	// Seed drives all randomness.
	Seed int64
	// Workers selects the cluster execution mode for experiments that
	// support it (currently E1): 0 = serial engine, >= 1 = deterministic
	// parallel executor, -1 = GOMAXPROCS workers. Tables are identical
	// for any value; only wall-clock time changes.
	Workers int
	// Trace attaches delivery tracing to the experiments that support it
	// (E1 and the E6 crash-during-forward cases) and fills Table.Traces.
	// Tracing never perturbs the run: tables are bit-identical with it on
	// or off.
	Trace bool
	// Nodes, when positive, replaces E1's standard size sweep with a
	// single row at exactly this size, run with virtual quiescent
	// leaves (core.ClusterConfig.VirtualSubjects): only 4 members per
	// leaf zone are full agents, the rest are template rows plus
	// delivery bitsets. Delivery accounting stays exact; latency
	// quantiles are sampled at the real members. This is what makes
	// the 1,048,576-node row tractable.
	Nodes int
	// Scenario restricts E10 to a comma-separated list of chaos scenario
	// names (see internal/sim/chaos). Empty runs the quick subset under
	// Quick and the full registry otherwise.
	Scenario string
}

// Table is one experiment's result table.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper claim being tested
	Columns []string
	Rows    [][]string
	Notes   []string
	// Traces holds per-run delivery-trace reports when Options.Trace was
	// set. Render and String deliberately ignore it so the
	// serial-vs-parallel table equality gate keeps comparing pure table
	// text; span-set equality is gated separately on TraceReport
	// Fingerprint.
	Traces []*TraceReport
	// Wire holds per-configuration wire-byte usage for experiments that
	// record it (E1). Render and String ignore it for the same reason as
	// Traces; newswire-bench persists it into BENCH_<ID>.json, where CI
	// gates on bytes-per-round regressions.
	Wire []WireUsage
	// Nodes is the largest cluster size the experiment simulated, for
	// per-node normalization of process-level measurements (the
	// peak_heap_bytes_per_node figure in BENCH_E1.json). 0 when the
	// experiment doesn't report it.
	Nodes int
	// Chaos holds the raw per-scenario results when the experiment is the
	// E10 adversarial suite. Render and String ignore it (like Traces and
	// Wire); newswire-bench persists it into BENCH_E10.json, where
	// benchgate bounds convergence rounds and delivery floors.
	Chaos []chaos.Result
	// Obs holds the raw per-arm figures when the experiment is the E12
	// observability-overhead suite. Render and String ignore it (like
	// Chaos); newswire-bench persists it into BENCH_E12.json, where
	// benchgate bounds the enabled-vs-disabled overhead ratios.
	Obs []ObsArm
	// Precision holds the raw per-arm routing-precision figures when the
	// experiment is the E8 subscription-summary sweep. Render and String
	// ignore it (like Chaos and Obs); newswire-bench persists it into
	// BENCH_E8.json, where benchgate requires the predicate arm to cut
	// false-positive forwarding versus plain Bloom at equal recall
	// without blowing up gossip bytes.
	Precision []PrecisionRow
	// Volatile names columns whose cells are wall-clock measurements —
	// meaningful in the rendered table but not reproducible between runs.
	// ComparableString masks them so the serial-vs-parallel determinism
	// gate compares only the deterministic cells.
	Volatile []string
}

// PrecisionRow records one E8 arm (subscription count × summary mode):
// how precisely the zone-level forwarding test tracked the subscribers'
// exact interests, and what the summary cost on the wire.
type PrecisionRow struct {
	// Label names the arm, e.g. "256 subs / predicate".
	Label string `json:"label"`
	// Mode is the pubsub summary mode name.
	Mode string `json:"mode"`
	// Subscriptions is the subject-pool size of the arm.
	Subscriptions int `json:"subscriptions"`
	// RootAttrs is the widest root-zone row (gossip payload growth).
	RootAttrs int `json:"root_row_attrs"`
	// Recall is delivered / expected exact matches (1.0 = no lost items).
	Recall float64 `json:"recall"`
	// ExactMatches counts leaf deliveries that matched exactly.
	ExactMatches int64 `json:"exact_matches"`
	// FPDrops counts leaf arrivals the exact test discarded — items the
	// summary forwarded for nothing.
	FPDrops int64 `json:"false_positive_drops"`
	// FPRate is FPDrops / (FPDrops + ExactMatches).
	FPRate float64 `json:"fp_rate"`
	// Forwards counts positive zone-level forwarding decisions.
	Forwards int64 `json:"forwards"`
	// SubgroupTests counts subgroup filters consulted (predicate mode).
	SubgroupTests int64 `json:"subgroup_tests"`
	// BytesPerRoundPerNode is steady-state gossip load in a publish-free
	// window — the price of carrying the summary in the hierarchy.
	BytesPerRoundPerNode float64 `json:"bytes_per_round_per_node"`
	// NsPerDecision is the forwarding-filter cost against a root row.
	NsPerDecision int64 `json:"ns_per_decision"`
	// SubgroupFilters is the cluster-wide count of aggregated subgroup
	// filters visible from node 0 (predicate mode; 0 otherwise).
	SubgroupFilters int `json:"subgroup_filters"`
}

// WireUsage records the simulated network's byte load for one
// experiment configuration, as charged by wire.(*Message).EstimateSize.
type WireUsage struct {
	// Label names the configuration, e.g. "64 nodes".
	Label string `json:"label"`
	// Nodes is the cluster size.
	Nodes int `json:"nodes"`
	// Rounds is how many gossip rounds the run spanned (warmup included).
	Rounds int `json:"rounds"`
	// BytesOnWire is the total bytes handed to the network (sent side).
	BytesOnWire int64 `json:"bytes_on_wire"`
	// BytesPerRound is BytesOnWire / Rounds — the steady-state figure the
	// CI regression gate compares across commits.
	BytesPerRound float64 `json:"bytes_per_round"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "   claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = pad(c, w)
		}
		fmt.Fprintf(w, "   %s\n", strings.Join(parts, "  "))
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// ComparableString renders the table with every Volatile column's cells
// replaced by "-", for executor-equality comparisons: two runs of a
// deterministic experiment must agree on everything except wall-clock
// cells.
func (t *Table) ComparableString() string {
	if len(t.Volatile) == 0 {
		return t.String()
	}
	masked := *t
	vol := make(map[int]bool, len(t.Volatile))
	for i, c := range t.Columns {
		for _, v := range t.Volatile {
			if c == v {
				vol[i] = true
			}
		}
	}
	masked.Rows = make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		out := append([]string(nil), row...)
		for i := range out {
			if vol[i] {
				out[i] = "-"
			}
		}
		masked.Rows[r] = out
	}
	return masked.String()
}

// Runner is one experiment entry point.
type Runner struct {
	ID   string
	Name string
	Run  func(opt Options) *Table
}

// All lists every experiment in index order.
func All() []Runner {
	return []Runner{
		{ID: "E1", Name: "delivery latency vs. system size", Run: RunE1},
		{ID: "E2", Name: "pull-model redundancy", Run: RunE2},
		{ID: "E3", Name: "Bloom filter accuracy vs. size", Run: RunE3},
		{ID: "E4", Name: "publisher load vs. direct push", Run: RunE4},
		{ID: "E5", Name: "flash-crowd overload", Run: RunE5},
		{ID: "E6", Name: "robustness under forwarder failure", Run: RunE6},
		{ID: "E7", Name: "gossip convergence to the root", Run: RunE7},
		{ID: "E8", Name: "subscription-summary precision (predicate vs. Bloom vs. attributes)", Run: RunE8},
		{ID: "A2", Name: "representative election policies", Run: RunA2},
		{ID: "A3", Name: "publication zone scoping", Run: RunA3},
		{ID: "E10", Name: "adversarial chaos scenarios", Run: RunE10},
		{ID: "E12", Name: "observability overhead (health + tracing)", Run: RunE12},
	}
}

// fmtMS renders a duration-in-seconds as milliseconds.
func fmtMS(seconds float64) string {
	return fmt.Sprintf("%.0fms", seconds*1000)
}

// fmtPct renders a fraction as a percentage.
func fmtPct(f float64) string {
	return fmt.Sprintf("%.1f%%", f*100)
}

// fmtF renders a float compactly.
func fmtF(f float64) string {
	return fmt.Sprintf("%.2f", f)
}

// fmtI renders an int.
func fmtI(i int64) string {
	return fmt.Sprintf("%d", i)
}
