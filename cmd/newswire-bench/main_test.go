package main

import (
	"strings"
	"testing"
)

func TestRunListFlag(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list failed: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	// A1 and A4 name runners that no longer exist.
	for _, id := range []string{"E99", "A1", "A4"} {
		err := run([]string{"-run", id})
		if err == nil {
			t.Fatalf("-run %s accepted", id)
		}
		if !strings.Contains(err.Error(), "unknown experiment") {
			t.Fatalf("-run %s: unexpected error: %v", id, err)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nonsense"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunSingleQuickExperiment(t *testing.T) {
	// A2 is among the cheapest experiments (tens of milliseconds); run it
	// for real.
	if err := run([]string{"-run", "A2", "-quick", "-seed", "2"}); err != nil {
		t.Fatalf("quick A2 run failed: %v", err)
	}
}
