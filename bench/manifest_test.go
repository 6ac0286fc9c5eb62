package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestManifestMatchesProgram keeps BENCHMARK.json and the program from
// drifting apart: same workloads, same end-to-end metrics with unit,
// direction and bound, same per-layer metrics with unit, same run length.
func TestManifestMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, program is sized for %d", m.RunSeconds, nominalSeconds)
	}
	names := workloadNames()
	if len(m.Workloads) != len(names) {
		t.Fatalf("manifest has %d workloads, program %d", len(m.Workloads), len(names))
	}
	for i, w := range m.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d is %q in the manifest, %q in the program", i, w.Name, names[i])
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest has %d end-to-end metrics, program %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		p := endToEnd[i]
		if e.Name != p.name || e.Unit != p.unit || e.Better != p.better || e.Bound != p.bound {
			t.Errorf("end-to-end metric %d: manifest %+v, program %+v", i, e, p)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d per-layer metrics, program %d", len(m.PerLayer), len(perLayer))
	}
	for i, e := range m.PerLayer {
		if p := perLayer[i]; e.Name != p.name || e.Unit != p.unit {
			t.Errorf("per-layer metric %d: manifest %s [%s], program %s [%s]", i, e.Name, e.Unit, p.name, p.unit)
		}
		if e.Better != "lower" && e.Better != "higher" {
			t.Errorf("per-layer metric %s: better = %q", e.Name, e.Better)
		}
	}
}
