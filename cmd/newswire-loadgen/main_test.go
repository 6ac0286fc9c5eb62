package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the loadgen spawn its sink child even when the compiled
// binary is the test binary: the parent sets NEWSWIRE_LOADGEN_SINK and
// the child dispatches straight into run() instead of the test runner.
func TestMain(m *testing.M) {
	if os.Getenv("NEWSWIRE_LOADGEN_SINK") == "1" {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "newswire-loadgen:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestLoadgenEndToEnd runs a miniature E11 — real sockets, the load arm,
// the full-decode verification — and checks the artifact invariants:
// every published frame delivered, zero corruption, sane schema.
func TestLoadgenEndToEnd(t *testing.T) {
	dir := t.TempDir()
	err := loadgen(options{
		subs: 32, payload: 64, pubRates: []int{20}, step: 500 * time.Millisecond,
		decodeEvery: 4, verifyItems: 16, jsonDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, "BENCH_E11.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ID != "E11" || rep.Subs != 32 {
		t.Fatalf("bad report header: %+v", rep)
	}
	if len(rep.Arms) != 1 || rep.Arms[0].Label != armLabel {
		t.Fatalf("got arms %+v, want the one %q arm", rep.Arms, armLabel)
	}
	for _, arm := range rep.Arms {
		if arm.TotalCorrupt != 0 {
			t.Errorf("arm %s: %d corrupt frames", arm.Label, arm.TotalCorrupt)
		}
		if arm.SustainedMsgsPerSec <= 0 {
			t.Errorf("arm %s: no sustained throughput recorded", arm.Label)
		}
		if arm.ClockRTTMs <= 0 {
			t.Errorf("arm %s: clock_rtt_ms %v, want the hub's clock measured", arm.Label, arm.ClockRTTMs)
		}
		for _, st := range arm.Steps {
			if st.DeliveredFrames != st.OfferedFrames {
				t.Errorf("arm %s rate %d: delivered %d of %d frames",
					arm.Label, st.TargetItemsPerSec, st.DeliveredFrames, st.OfferedFrames)
			}
		}
	}
	if len(rep.Verify) != 1 {
		t.Fatalf("got %d verify rows, want one", len(rep.Verify))
	}
	for _, v := range rep.Verify {
		if v.Corrupt != 0 || v.Decoded != v.Frames || v.Frames != 16*32 {
			t.Errorf("verify %s: frames %d decoded %d corrupt %d", v.Codec, v.Frames, v.Decoded, v.Corrupt)
		}
	}
}

// TestLoadgenUnknownFlag matches the repo's CLI convention (newswire-bench):
// an unknown flag prints usage and returns a parse error instead of
// calling os.Exit mid-library.
func TestLoadgenUnknownFlag(t *testing.T) {
	err := run([]string{"-definitely-not-a-flag"})
	if err == nil {
		t.Fatal("unknown flag accepted")
	}
	if !strings.Contains(err.Error(), "definitely-not-a-flag") {
		t.Fatalf("unexpected error: %v", err)
	}
}
