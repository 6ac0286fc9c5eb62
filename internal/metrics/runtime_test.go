package metrics

import (
	"strings"
	"testing"
)

func TestReadRuntime(t *testing.T) {
	rs := ReadRuntime()
	if rs.HeapInuseBytes == 0 {
		t.Error("HeapInuseBytes = 0; a running test binary has a live heap")
	}
	if rs.NumGoroutine < 1 {
		t.Errorf("NumGoroutine = %d", rs.NumGoroutine)
	}
	if rs.GCPauseP99Seconds < 0 || rs.GCPauseP99Seconds > 10 {
		t.Errorf("GCPauseP99Seconds = %v, implausible", rs.GCPauseP99Seconds)
	}
}

func TestCollectRuntimeExposition(t *testing.T) {
	reg := NewRegistry()
	rs := CollectRuntime(reg)
	if got := reg.Gauge("heap_inuse_bytes").Value(); got != float64(rs.HeapInuseBytes) {
		t.Errorf("heap_inuse_bytes gauge = %v, snapshot says %d", got, rs.HeapInuseBytes)
	}
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		"heap_inuse_bytes", "heap_alloc_bytes", "num_goroutine",
		"gc_pause_p99_seconds", "gc_cycles_total",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("exposition lacks %s:\n%s", name, out)
		}
	}
	// A _total suffix names a counter in the text format.
	if !strings.Contains(out, "# TYPE gc_cycles_total counter\n") {
		t.Errorf("gc_cycles_total is not typed as a counter:\n%s", out)
	}
}
