package main

import (
	"encoding/json"
	"fmt"
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
	for _, tc := range []struct {
		name    string
		current string
		wantErr string // substring of the error; "" means the gate passes
	}{
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			var base, cur benchArtifact
			if err := json.Unmarshal([]byte(baseline), &base); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal([]byte(tc.current), &cur); err != nil {
				t.Fatal(err)
			}
			err := gateE11("baseline.json", base, cur, 30000, 2000)
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
