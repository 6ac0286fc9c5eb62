// Command bench is the repository's benchmark: four workloads driven
// through the public newswire API, seven end-to-end metrics each, and a
// traced mode that attributes the cost to the layers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// procs pins GOMAXPROCS: the benchmark's rates and window sizes were sized
// on two vCPUs, and a run on a larger box must not measure something else.
const procs = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of standard output of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "fanout, signed, selective or sim_churn; empty runs all four")
		seed      = fs.Int64("seed", 1, "seed of the generated inputs and of every node's random source")
		seconds   = fs.Float64("seconds", nominalSeconds, "how long the measured phases last")
		traced    = fs.Int("trace", 0, "1 prints the per-layer metrics from a traced run instead of the end-to-end ones")
		calibrate = fs.Int("calibrate", 0, "run this many full passes and print the spread of every metric")
		outDir    = fs.String("out", "bench/out", "directory the traced run writes its spans to")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(procs)
	if *calibrate > 0 {
		if err := runCalibrate(*calibrate, *seconds, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	names := []string{*workload}
	if *workload == "" {
		names = workloadNames()
	}
	code := 0
	for _, name := range names {
		out, err := runWorkload(name, *seed, *seconds, *traced != 0, *outDir, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		printOutcome(stderr, out)
		line, err := json.Marshal(result{
			Correct:   out.failed == 0,
			Attempted: out.attempted,
			Failed:    out.failed,
			Metrics:   out.metrics,
		})
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if out.corrupt != 0 {
			code = 1 // a body that differs from the generated input is never acceptable
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, s := range liveSpecs {
		names = append(names, s.name)
	}
	return append(names, simChurnName)
}

func runWorkload(name string, seed int64, seconds float64, traced bool, outDir string, log io.Writer) (*outcome, error) {
	if seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if name == simChurnName {
		if traced {
			return traceSim(seed, seconds, outDir, log)
		}
		return runSim(seed, seconds, log)
	}
	for _, s := range liveSpecs {
		if s.name == name {
			if traced {
				return traceLive(s, seed, seconds, outDir, log)
			}
			return runLive(s, seed, seconds, log)
		}
	}
	return nil, fmt.Errorf("unknown workload (want one of %v)", workloadNames())
}

// printOutcome writes the human-readable form: every metric by name with
// its unit and sample count, then ops and failed ops.
func printOutcome(w io.Writer, out *outcome) {
	fmt.Fprintf(w, "workload %s\n", out.workload)
	for _, set := range []map[string]metric{out.metrics, out.diag} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := set[name]
			if n, ok := out.samples[name]; ok {
				fmt.Fprintf(w, "  %-32s %14.4f %-6s (%d samples)\n", name, m.Value, m.Unit, n)
			} else {
				fmt.Fprintf(w, "  %-32s %14.4f %s\n", name, m.Value, m.Unit)
			}
		}
	}
	fmt.Fprintf(w, "  ops %d, failed %d\n", out.attempted, out.failed)
}
