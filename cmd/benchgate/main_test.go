package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// TestGateE11 holds the live-transport gate to its contract (make e11 and
// make e11-smoke pass a 30k msgs/s floor and a 2 s clean-p99 ceiling):
// each bound fails on its own, and an artifact without arms is an error,
// not a pass.
func TestGateE11(t *testing.T) {
	const baseline = `{"id":"E11","arms":[
		{"label":"async","sustained_msgs_per_sec":100000,"clean_p99_ms":300},
		{"label":"sync","sustained_msgs_per_sec":9000,"clean_p99_ms":900}]}`
	// Field names as newswire-loadgen writes them.
	arm := func(msgs, p99 float64, corrupt int) string {
		return fmt.Sprintf(`{"label":"async","sustained_msgs_per_sec":%g,"clean_p99_ms":%g,"total_drops":0,"total_corrupt":%d}`,
			msgs, p99, corrupt)
	}
	const verifyOK = `{"codec":"binary","frames":512,"decoded":512,"corrupt":0}`
	runGateCases(t, baseline, func(base, cur benchArtifact) error {
		return gateE11("baseline.json", base, cur, 30000, 2000)
	}, []gateCase{
		{"pass", `{"id":"E11","arms":[` + arm(98000, 250, 0) + `],"verify":[` + verifyOK + `]}`, ""},
		{"pass without a verify phase", `{"id":"E11","arms":[` + arm(30000, 2000, 0) + `]}`, ""},
		{"corrupt frame in the arm", `{"id":"E11","arms":[` + arm(98000, 250, 1) + `],"verify":[` + verifyOK + `]}`,
			"arm async saw 1 corrupt frames"},
		{"sustained below the floor", `{"id":"E11","arms":[` + arm(29999, 250, 0) + `],"verify":[` + verifyOK + `]}`,
			"sustained 29999 msgs/sec < floor 30000"},
		{"clean p99 above the ceiling", `{"id":"E11","arms":[` + arm(98000, 2000.5, 0) + `],"verify":[` + verifyOK + `]}`,
			"clean p99 2000.5ms > ceiling 2000ms"},
		{"verify decoded fewer than it received", `{"id":"E11","arms":[` + arm(98000, 250, 0) +
			`],"verify":[{"codec":"binary","frames":512,"decoded":511,"corrupt":0}]}`,
			"codec binary decoded 511 of 512 frames"},
		{"verify saw corruption", `{"id":"E11","arms":[` + arm(98000, 250, 0) +
			`],"verify":[{"codec":"binary","frames":512,"decoded":512,"corrupt":2}]}`,
			"codec binary saw 2 corrupt frames"},
		{"no arms", `{"id":"E11","verify":[` + verifyOK + `]}`, "no live-transport arms"},
	})
}

// gateCase is one artifact a gate is run on and what it must say.
type gateCase struct {
	name    string
	current string
	wantErr string // substring of the error; "" means the gate passes
}

// runGateCases runs gate on each case's artifact against baseline.
func runGateCases(t *testing.T, baseline string, gate func(base, cur benchArtifact) error, cases []gateCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var base, cur benchArtifact
			if err := json.Unmarshal([]byte(baseline), &base); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal([]byte(tc.current), &cur); err != nil {
				t.Fatal(err)
			}
			err := gate(base, cur)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("gate passed, want an error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("gate error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestGateChaos holds the chaos gate (make chaos-smoke, nightly-chaos) to
// its bounds: each scenario's final delivery, its during-fault floor, its
// convergence budget, the self-healing verdict and, at the baseline's seed
// and size, its deterministic counts each fail on their own, and an
// artifact without scenarios is an error, not a pass.
func TestGateChaos(t *testing.T) {
	// Field names as newswire-bench writes them.
	const counts = `"recovery_bytes":81835,"steady_bytes_per_round":82596.375,"rows_rejected":0,"rows_scrambled":0,` +
		`"queue_dropped":0,"recovered_items":2,"materialized":0,"crashes":0`
	const baseline = `{"id":"E10","seed":1,"quick":false,"big":false,"chaos":[{"scenario":"partition-heal","final_delivery":1,
		"delivery_during_fault":0.75,"delivery_floor":0.5,"convergence_rounds":1,"max_rounds":8,"self_healed":true,` + counts + `}]}`
	row := func(final, during float64, rounds int, healed string) string {
		return fmt.Sprintf(`{"id":"E10","seed":1,"quick":false,"big":false,"chaos":[{"scenario":"partition-heal","final_delivery":%g,`+
			`"delivery_during_fault":%g,"delivery_floor":0.5,"convergence_rounds":%d,"max_rounds":8%s,%s}]}`,
			final, during, rounds, healed, counts)
	}
	healthy := row(1, 0.75, 1, `,"self_healed":true`)
	moreRecovery := strings.Replace(healthy, `"recovery_bytes":81835`, `"recovery_bytes":81836`, 1)
	atSeed2 := strings.Replace(moreRecovery, `"seed":1`, `"seed":2`, 1)
	gate := func(base, cur benchArtifact) error { return gateChaos("baseline.json", base, cur) }
	runGateCases(t, baseline, gate, []gateCase{
		{"pass", healthy, ""},
		{"pass without a self-healing verdict", row(1, 0.5, 8, ""), ""},
		{"final delivery short", row(0.9999, 0.75, 1, `,"self_healed":true`), "final delivery 0.9999 < 1.0000"},
		{"during-fault delivery below the floor", row(1, 0.4999, 1, `,"self_healed":true`),
			"during-fault delivery 0.4999 < floor 0.5000"},
		{"convergence past the scenario's bound", row(1, 0.75, 9, `,"self_healed":true`), "convergence 9 rounds > bound 8"},
		{"not self-healed", row(1, 0.75, 1, `,"self_healed":false`), "did not self-heal"},
		{"recovery bytes changed", moreRecovery, "recovery_bytes 81836 != baseline 81835"},
		{"no rows", `{"id":"E10"}`, "no chaos rows"},
	})
	t.Run("counts at another seed skipped", func(t *testing.T) {
		var base, cur benchArtifact
		if err := json.Unmarshal([]byte(baseline), &base); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(atSeed2), &cur); err != nil {
			t.Fatal(err)
		}
		var err error
		out := captureStdout(t, func() { err = gate(base, cur) })
		if err != nil {
			t.Fatalf("gate failed on counts from another seed: %v", err)
		}
		if want := "chaos counts not compared: baseline ran seed 1 quick=false big=false, current seed 2"; !strings.Contains(out, want) {
			t.Fatalf("gate printed %q, want it to contain %q", out, want)
		}
	})
}

// captureStdout returns what fn prints to os.Stdout.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	fn()
	w.Close()
	return string(<-done)
}

// TestGateE8 holds the precision gate (make e8, make e8-smoke) to its
// bounds: per-arm recall, the predicate/bloom false-positive ratio, the
// predicate/bloom bytes ratio and each label's bytes drift against the
// baseline each fail on their own, and an artifact without rows is an
// error, not a pass.
func TestGateE8(t *testing.T) {
	const baseline = `{"id":"E8","precision":[
		{"label":"16 subs / bloom","mode":"bloom","subscriptions":16,"recall":1,"false_positive_drops":100,"bytes_per_round_per_node":300},
		{"label":"16 subs / predicate","mode":"predicate","subscriptions":16,"recall":1,"false_positive_drops":0,"bytes_per_round_per_node":310}]}`
	// Field names as newswire-bench writes them.
	arms := func(bloomBytes, predRecall float64, predFP int, predBytes float64) string {
		return fmt.Sprintf(`{"id":"E8","precision":[`+
			`{"label":"16 subs / bloom","mode":"bloom","subscriptions":16,"recall":1,"false_positive_drops":100,"bytes_per_round_per_node":%g},`+
			`{"label":"16 subs / predicate","mode":"predicate","subscriptions":16,"recall":%g,"false_positive_drops":%d,"bytes_per_round_per_node":%g}]}`,
			bloomBytes, predRecall, predFP, predBytes)
	}
	runGateCases(t, baseline, func(base, cur benchArtifact) error {
		return gateE8("baseline.json", base, cur)
	}, []gateCase{
		{"pass", arms(300, 1, 40, 320), ""},
		{"recall below the floor", arms(300, 0.998, 40, 320), "16 subs / predicate recall 0.9980 < floor 0.9990"},
		{"false positives past the ratio", arms(300, 1, 51, 320), "16 subs: predicate fp drops 51 > 50% of bloom's 100"},
		{"bytes past the ratio", arms(300, 1, 40, 331), "16 subs: predicate bytes 1.10x bloom > 1.10x"},
		{"bytes drifted from the baseline", arms(331, 1, 40, 320), "16 subs / bloom bytes/round/node +10.3% vs baseline > 10%"},
		{"no rows", `{"id":"E8"}`, "no precision rows"},
	})
}

// TestGateObs holds the observability gate (make e12) to its 5% budget:
// the health+trace arm's bytes/round and ns/round overheads over the off
// arm and a converged health rollup each fail on their own, and an
// artifact missing either arm is an error, not a pass.
func TestGateObs(t *testing.T) {
	const baseline = `{"id":"E12","obs":[
		{"label":"off","bytes_per_round":1000,"ns_per_round":5000},
		{"label":"health+trace","health":true,"traced":true,"bytes_per_round":1030,"ns_per_round":5100,"health_nodes":64,"ns_overhead_vs_off":0.02}]}`
	// Field names as newswire-bench writes them.
	arms := func(fullBytes, nsOver float64, healthNodes int) string {
		return fmt.Sprintf(`{"id":"E12","obs":[`+
			`{"label":"off","health":false,"traced":false,"bytes_per_round":1000,"ns_per_round":5000,"allocs_per_round":40},`+
			`{"label":"health+trace","health":true,"traced":true,"bytes_per_round":%g,"ns_per_round":5100,"allocs_per_round":45,`+
			`"health_nodes":%d,"ns_overhead_vs_off":%g}]}`,
			fullBytes, healthNodes, nsOver)
	}
	runGateCases(t, baseline, func(base, cur benchArtifact) error {
		return gateObs("baseline.json", base, cur)
	}, []gateCase{
		{"pass", arms(1049, 0.05, 64), ""},
		{"bytes overhead over budget", arms(1051, 0.02, 64), "bytes/round overhead +5.1% > 5%"},
		{"ns overhead over budget", arms(1030, 0.051, 64), "ns/round overhead +5.1% > 5%"},
		{"no health rollup", arms(1030, 0.02, 0), "health_nodes == 0"},
		{"off arm missing", `{"id":"E12","obs":[{"label":"health+trace","bytes_per_round":1030,"health_nodes":64}]}`,
			"missing the off and/or health+trace arm"},
		{"health+trace arm missing", `{"id":"E12","obs":[{"label":"off","bytes_per_round":1000}]}`,
			"missing the off and/or health+trace arm"},
		{"no arms", `{"id":"E12"}`, "no observability arms"},
	})
}

// TestGateWire holds the bytes gate (make bench-smoke, make bench-mem) to
// its bounds: a label's bytes/round past 10% and the per-node peak heap
// past -max-heap-regress each fail on their own; heap figures taken at
// different cluster sizes are not compared; an artifact sharing no label
// with the baseline is an error, and a baseline without a wire section
// passes.
func TestGateWire(t *testing.T) {
	const baseline = `{"id":"E1","bytes_on_wire":[
		{"label":"n=256","bytes_per_round":1000},
		{"label":"n=1M nightly","bytes_per_round":9000}],
		"peak_heap_bytes_per_node":2000,"heap_nodes":256}`
	// Field names as newswire-bench writes them.
	wire := func(bytes, heap float64, heapNodes int) string {
		return fmt.Sprintf(`{"id":"E1","bytes_on_wire":[{"label":"n=256","bytes_per_round":%g}],`+
			`"peak_heap_bytes_per_node":%g,"heap_nodes":%d}`, bytes, heap, heapNodes)
	}
	gate := func(base, cur benchArtifact) error {
		return gateWire("baseline.json", base, cur, 0.25)
	}
	runGateCases(t, baseline, gate, []gateCase{
		{"pass", wire(1100, 2500, 256), ""},
		{"bytes regression", wire(1101, 2000, 256), "n=256 bytes/round +10.1% > 10%"},
		{"heap regression", wire(1000, 2501, 256), "heap/node +25.1% > 25%"},
		{"heap at a different node count is skipped", wire(1000, 8000, 65536), ""},
		{"no common labels", `{"id":"E1","bytes_on_wire":[{"label":"n=512","bytes_per_round":1000}]}`,
			"no common bytes_on_wire labels"},
	})
	runGateCases(t, `{"id":"E1"}`, gate, []gateCase{
		{"baseline without a wire section", wire(5000, 9000, 256), ""},
	})
}
