package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEnd lists the end-to-end metrics every workload prints, with the
// direction that is better and the share of the parent's median by which
// a metric may worsen before a change counts as a regression.
// BENCHMARK.json carries the same list; a test keeps them equal.
var endToEnd = []struct {
	name, unit, better string
	bound              float64
}{
	{"setup_s", "s", "lower", 0.25},
	{"wire_kb_per_item", "KB", "lower", 0.05},
	{"alloc_kb_per_item", "KB", "lower", 0.05},
	{"allocs_per_item", "count", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// runCalibrate measures how well the benchmark repeats on this machine, by
// the rule its acceptance check uses: n passes over all workloads, each
// with another seed and each run a process of its own, split alternately
// into set A and set B. For every metric it prints each set's spread
// (interquartile distance over median) and how much worse B's median is
// than A's, against the metric's bound.
func runCalibrate(n int, seconds float64, stdout, stderr io.Writer) error {
	if n < 4 {
		return fmt.Errorf("-calibrate needs at least 4 passes to have quartiles in both sets")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][metric][set] -> one value per pass of the set
	values := make(map[string]map[string][2][]float64)
	var failures []string
	for pass := 0; pass < n; pass++ {
		for _, w := range workloadNames() {
			t0 := time.Now()
			cmd := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(pass+1), "-seconds", fmt.Sprint(seconds))
			var out, diag bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &diag
			var res result
			err := cmd.Run()
			if err == nil {
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				err = json.Unmarshal([]byte(lines[len(lines)-1]), &res)
			}
			if err == nil && res.Failed != 0 {
				err = fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
			}
			if err != nil {
				// A run that fails is left out of the statistics and fails
				// the calibration at the end; the passes after it still run.
				failures = append(failures, fmt.Sprintf("pass %d %s seed %d: %v\n%s", pass+1, w, pass+1, err, diag.String()))
				fmt.Fprintln(stderr, failures[len(failures)-1])
				continue
			}
			if values[w] == nil {
				values[w] = make(map[string][2][]float64)
			}
			for name, m := range res.Metrics {
				sets := values[w][name]
				sets[pass%2] = append(sets[pass%2], m.Value)
				values[w][name] = sets
			}
			fmt.Fprintf(stderr, "pass %d/%d %s seed %d: %.1f s\n", pass+1, n, w, pass+1, time.Since(t0).Seconds())
		}
	}

	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	fmt.Fprintf(stdout, "# Calibration\n\n")
	fmt.Fprintf(stdout, "%d passes (seeds 1..%d, set A = odd seeds, set B = even seeds), `-seconds %g`, GOMAXPROCS %d; %s, %d CPUs, kernel %s, %s.\n\n",
		n, n, seconds, procs, runtime.Version(), runtime.NumCPU(), strings.TrimSpace(string(kernel)), time.Now().UTC().Format("2006-01-02"))
	fmt.Fprintf(stdout, "Spread is the distance between the first and third quartile as a share of the median. \"B worse\" is how much worse set B's median is than set A's (negative: better). A metric holds when both spreads and \"B worse\" stay within its bound; the target for a spread is a third of the bound.\n")
	held := true
	for _, w := range workloadNames() {
		fmt.Fprintf(stdout, "\n## %s\n\n", w)
		fmt.Fprintf(stdout, "| metric | unit | bound | A min | A median | A max | A spread | B median | B spread | B worse | holds |\n")
		fmt.Fprintf(stdout, "|---|---|---|---|---|---|---|---|---|---|---|\n")
		for _, m := range endToEnd {
			a, b := values[w][m.name][0], values[w][m.name][1]
			sorted := append([]float64(nil), a...)
			sort.Float64s(sorted)
			lo, hi := sorted[0], sorted[len(sorted)-1]
			worse := (median(b) - median(a)) / median(a)
			if m.better == "higher" {
				worse = -worse
			}
			ok := worse <= m.bound
			if m.name != "setup_s" { // the acceptance check exempts setup_s from the spread rule
				ok = ok && spread(a) <= m.bound && spread(b) <= m.bound
			}
			verdict := "yes"
			if !ok {
				verdict = "NO"
				held = false
			}
			fmt.Fprintf(stdout, "| %s | %s | %.2f | %.4g | %.4g | %.4g | %.2f%% | %.4g | %.2f%% | %+.2f%% | %s |\n",
				m.name, m.unit, m.bound, lo, median(a), hi, 100*spread(a), median(b), 100*spread(b), 100*worse, verdict)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d runs failed:\n%s", len(failures), strings.Join(failures, "\n"))
	}
	if !held {
		return fmt.Errorf("at least one metric did not hold its bound")
	}
	return nil
}
