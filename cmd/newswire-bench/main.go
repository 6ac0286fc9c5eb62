// Command newswire-bench regenerates the simulated experiment tables in
// EXPERIMENTS.md; -list prints the runners.
//
// Usage:
//
//	newswire-bench                   # run everything at standard size
//	newswire-bench -run E3,E5        # specific experiments
//	newswire-bench -quick            # smaller, faster configurations
//	newswire-bench -big              # include the largest E1/E7 points
//	newswire-bench -nodes 1048576    # one E1 row at exactly this size (virtual leaves)
//	newswire-bench -scenario partition-heal,scramble-converge
//	                                 # specific chaos scenarios (implies -run E10)
//	newswire-bench -seed 7           # change the deterministic seed
//	newswire-bench -workers -1       # parallel executor, GOMAXPROCS workers
//	newswire-bench -verify-parallel  # gate: parallel tables == serial tables
//	newswire-bench -trace            # print slowest/failed delivery hop paths (E1, E6)
//	newswire-bench -json out/        # write BENCH_<ID>.json result files
//	newswire-bench -speedup          # measure serial vs parallel gossip rounds
//	newswire-bench -cpuprofile p.out # pprof the run
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"newswire/internal/experiments"
	"newswire/internal/sim/chaos"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "newswire-bench:", err)
		os.Exit(1)
	}
}

// jsonReport is the machine-readable result written per experiment when
// -json is set, so the perf trajectory is tracked across changes.
type jsonReport struct {
	ID          string     `json:"id"`
	Title       string     `json:"title"`
	Claim       string     `json:"claim,omitempty"`
	Columns     []string   `json:"columns"`
	Rows        [][]string `json:"rows"`
	Notes       []string   `json:"notes,omitempty"`
	Seed        int64      `json:"seed"`
	Quick       bool       `json:"quick"`
	Big         bool       `json:"big"`
	Workers     int        `json:"workers"`
	GOMAXPROCS  int        `json:"gomaxprocs"`
	NumCPU      int        `json:"num_cpu"`
	WallSeconds float64    `json:"wall_seconds"`
	// PeakHeapBytes is the maximum runtime.MemStats.HeapInuse observed by
	// a 50ms sampler while the experiment ran — the footprint figure the
	// big-run E1 rows in EXPERIMENTS.md quote.
	PeakHeapBytes uint64 `json:"peak_heap_bytes,omitempty"`
	// PeakHeapBytesPerNode normalizes the peak by the largest cluster
	// size the experiment simulated (HeapNodes). This is the number the
	// million-node memory architecture is judged by, and benchgate fails
	// a >10% regression of it between artifacts with equal heap_nodes.
	PeakHeapBytesPerNode float64 `json:"peak_heap_bytes_per_node,omitempty"`
	HeapNodes            int     `json:"heap_nodes,omitempty"`
	// Wire is the per-configuration wire-byte usage (bytes_on_wire,
	// bytes_per_round) for experiments that record it; CI gates on the
	// E1 quick-size bytes_per_round regressing against the committed
	// artifact.
	Wire []experiments.WireUsage `json:"bytes_on_wire,omitempty"`
	// Chaos is the per-scenario adversarial suite outcome (E10): delivery
	// floors, convergence rounds and recovery bytes that benchgate bounds.
	Chaos []chaos.Result `json:"chaos,omitempty"`
	// Obs is the per-arm observability-overhead outcome (E12): bytes,
	// time and allocs per gossip round with the self-monitoring plane
	// off/on, gated by benchgate's enabled-vs-disabled ratio bounds.
	Obs []experiments.ObsArm `json:"obs,omitempty"`
	// Precision is the per-arm routing-precision outcome (E8): recall,
	// false-positive forwards and summary bytes per subscription-summary
	// mode, gated by benchgate's predicate-vs-bloom bounds.
	Precision []experiments.PrecisionRow `json:"precision,omitempty"`
	Verified  bool                       `json:"verified_against_serial,omitempty"`
	Bench     *experiments.SpeedupReport `json:"bench,omitempty"`
	Traces    []*experiments.TraceReport `json:"traces,omitempty"`
}

// heapSampler polls HeapInuse until stopped and reports the peak. With
// capture on it also snapshots the pprof heap profile whenever the peak
// grows by 10% past the last snapshot, so the retained profile describes
// the heap near its peak tick rather than at end of run (when transient
// experiment state is already released).
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64

	capture   bool
	profileAt uint64 // peak at the last snapshot
	profile   bytes.Buffer
}

func startHeapSampler(capture bool) *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), capture: capture}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > s.peak {
				s.peak = ms.HeapInuse
				if s.capture && s.peak > s.profileAt+s.profileAt/10 {
					s.profile.Reset()
					if pprof.Lookup("heap").WriteTo(&s.profile, 0) == nil {
						s.profileAt = s.peak
					}
				}
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// Peak stops the sampler and returns the highest heap-in-use seen.
func (s *heapSampler) Peak() uint64 {
	close(s.stop)
	<-s.done
	return s.peak
}

func run(args []string) error {
	all := experiments.All()
	fs := flag.NewFlagSet("newswire-bench", flag.ContinueOnError)
	var (
		runList    = fs.String("run", "all", "comma-separated experiment IDs ("+strings.Join(experimentIDs(all), ",")+") or 'all'")
		quick      = fs.Bool("quick", false, "run reduced-size configurations")
		big        = fs.Bool("big", false, "include the largest configurations (slow, memory-hungry)")
		seed       = fs.Int64("seed", 1, "deterministic random seed")
		list       = fs.Bool("list", false, "list available experiments and exit")
		workers    = fs.Int("workers", 0, "cluster execution mode: 0 serial, N>=1 parallel workers, -1 GOMAXPROCS")
		verifyPar  = fs.Bool("verify-parallel", false, "run each experiment serially and in parallel; fail on any table or trace difference")
		traced     = fs.Bool("trace", false, "attach delivery tracing (E1, E6) and print slowest/failed hop paths")
		jsonDir    = fs.String("json", "", "directory to write BENCH_<ID>.json result files into")
		speedup    = fs.Bool("speedup", false, "measure serial-vs-parallel gossip rounds at 4096 nodes (recorded in BENCH_E1.json)")
		nodes      = fs.Int("nodes", 0, "run E1 as one row at exactly this size with virtual quiescent leaves (implies -run E1)")
		scenario   = fs.String("scenario", "", "comma-separated chaos scenario names for the E10 suite (implies -run E10)")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write the pprof heap profile snapshotted at the run's peak tick to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, r := range all {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
		return nil
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	// The heap profile is captured by the sampler at the peak tick of
	// whichever experiment peaked highest, not at exit: by exit the
	// clusters are garbage and the profile would show an empty heap.
	var peakProfile []byte
	var peakProfileBytes uint64
	if *memprofile != "" {
		defer func() {
			if peakProfile == nil {
				fmt.Fprintln(os.Stderr, "newswire-bench: memprofile: no peak snapshot captured")
				return
			}
			if err := os.WriteFile(*memprofile, peakProfile, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "newswire-bench: memprofile:", err)
			}
		}()
	}

	want := map[string]bool{}
	if *nodes > 0 {
		*runList = "E1"
	}
	if *scenario != "" {
		*runList = "E10"
		for _, n := range strings.Split(*scenario, ",") {
			if n = strings.TrimSpace(n); n == "" {
				continue
			}
			if _, ok := chaos.ByName(n); !ok {
				return fmt.Errorf("unknown chaos scenario %q (known: %s)", n, strings.Join(chaosNames(), ", "))
			}
		}
	}
	if *runList != "all" {
		for _, id := range strings.Split(*runList, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
		for id := range want {
			found := false
			for _, r := range all {
				if r.ID == id {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
		}
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			return fmt.Errorf("json: %w", err)
		}
	}

	opt := experiments.Options{Quick: *quick, Big: *big, Seed: *seed, Workers: *workers, Trace: *traced, Nodes: *nodes, Scenario: *scenario}
	if *verifyPar && opt.Workers == 0 {
		opt.Workers = 4
	}
	for _, r := range all {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		start := time.Now()
		sampler := startHeapSampler(*memprofile != "")
		table := r.Run(opt)
		peakHeap := sampler.Peak()
		if sampler.profileAt > peakProfileBytes {
			peakProfileBytes = sampler.profileAt
			peakProfile = append([]byte(nil), sampler.profile.Bytes()...)
		}
		wall := time.Since(start)
		verified := false
		if *verifyPar {
			serialOpt := opt
			serialOpt.Workers = 0
			serialTable := r.Run(serialOpt)
			if got, wantT := table.ComparableString(), serialTable.ComparableString(); got != wantT {
				return fmt.Errorf("%s: parallel table differs from serial table:\n--- parallel ---\n%s--- serial ---\n%s",
					r.ID, got, wantT)
			}
			// With -trace on, the span sets must match too: same spans, same
			// canonical order, fingerprint-equal between executors.
			if len(table.Traces) != len(serialTable.Traces) {
				return fmt.Errorf("%s: parallel run produced %d trace reports, serial %d",
					r.ID, len(table.Traces), len(serialTable.Traces))
			}
			for i, tr := range table.Traces {
				if st := serialTable.Traces[i]; tr.Fingerprint != st.Fingerprint {
					return fmt.Errorf("%s: trace %q span fingerprint differs: parallel %s (%d spans) vs serial %s (%d spans)",
						r.ID, tr.Label, tr.Fingerprint, tr.SpanCount, st.Fingerprint, st.SpanCount)
				}
			}
			verified = true
			fmt.Printf("   (%s: parallel table verified identical to serial)\n", r.ID)
			if len(table.Traces) > 0 {
				fmt.Printf("   (%s: %d trace span sets verified identical to serial)\n", r.ID, len(table.Traces))
			}
		}
		table.Render(os.Stdout)
		for _, tr := range table.Traces {
			tr.Render(os.Stdout)
		}
		fmt.Printf("   (%s completed in %v)\n\n", r.ID, wall.Round(time.Millisecond))

		if *jsonDir != "" {
			rep := &jsonReport{
				ID: table.ID, Title: table.Title, Claim: table.Claim,
				Columns: table.Columns, Rows: table.Rows, Notes: table.Notes,
				Seed: *seed, Quick: *quick, Big: *big, Workers: opt.Workers,
				GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
				WallSeconds: wall.Seconds(), Verified: verified,
				PeakHeapBytes: peakHeap, Wire: table.Wire,
				Chaos:     table.Chaos,
				Obs:       table.Obs,
				Precision: table.Precision,
				Traces:    table.Traces,
			}
			if table.Nodes > 0 && peakHeap > 0 {
				rep.HeapNodes = table.Nodes
				rep.PeakHeapBytesPerNode = float64(peakHeap) / float64(table.Nodes)
			}
			if *speedup && r.ID == "E1" {
				b, err := experiments.MeasureGossipSpeedup(4096, 5, *seed, opt.Workers)
				if err != nil {
					return fmt.Errorf("speedup: %w", err)
				}
				rep.Bench = b
				fmt.Printf("   (E1 gossip rounds @4096 nodes: serial %.2fs, parallel %.2fs, %.2fx, allocs %d -> %d)\n\n",
					b.SerialSeconds, b.ParallelSeconds, b.Speedup, b.SerialAllocs, b.ParallelAllocs)
			}
			path := filepath.Join(*jsonDir, "BENCH_"+table.ID+".json")
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				return fmt.Errorf("json: %w", err)
			}
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				return fmt.Errorf("json: %w", err)
			}
			fmt.Printf("   (wrote %s)\n\n", path)
		}
	}
	return nil
}

func experimentIDs(runners []experiments.Runner) []string {
	ids := make([]string, len(runners))
	for i, r := range runners {
		ids[i] = r.ID
	}
	return ids
}

func chaosNames() []string {
	var names []string
	for _, sc := range chaos.Scenarios() {
		names = append(names, sc.Name)
	}
	return names
}
