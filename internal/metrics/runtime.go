package metrics

import (
	"runtime"
	"sort"
)

// RuntimeStats is a point-in-time snapshot of the Go runtime's memory and
// scheduler state — the footprint counters the big-run experiments watch
// (the 131k-node E1 run is memory-bound long before it is CPU-bound).
type RuntimeStats struct {
	// HeapInuseBytes is the heap memory in active use by live spans.
	HeapInuseBytes uint64 `json:"heapInuseBytes"`
	// HeapAllocBytes is the bytes of allocated, not-yet-freed objects.
	HeapAllocBytes uint64 `json:"heapAllocBytes"`
	// NumGoroutine is the current goroutine count.
	NumGoroutine int `json:"numGoroutine"`
	// GCPauseP99Seconds is the 99th-percentile stop-the-world pause over
	// the runtime's recent-pause ring (up to the last 256 GC cycles).
	GCPauseP99Seconds float64 `json:"gcPauseP99Seconds"`
	// NumGC is the cumulative completed GC cycle count.
	NumGC uint32 `json:"numGC"`
}

// ReadRuntime samples the runtime. It stops the world briefly
// (runtime.ReadMemStats), so callers should sample at display cadence,
// not per message.
func ReadRuntime() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		HeapInuseBytes:    ms.HeapInuse,
		HeapAllocBytes:    ms.HeapAlloc,
		NumGoroutine:      runtime.NumGoroutine(),
		GCPauseP99Seconds: pauseP99(&ms),
		NumGC:             ms.NumGC,
	}
}

// pauseP99 computes the 99th-percentile pause from MemStats' circular
// recent-pause buffer.
func pauseP99(ms *runtime.MemStats) float64 {
	n := int(ms.NumGC)
	if n == 0 {
		return 0
	}
	if n > len(ms.PauseNs) {
		n = len(ms.PauseNs)
	}
	pauses := make([]uint64, n)
	copy(pauses, ms.PauseNs[:n])
	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
	idx := (99*n + 99) / 100 // ceil(0.99n), 1-based
	if idx > n {
		idx = n
	}
	return float64(pauses[idx-1]) / 1e9
}

// CollectRuntime samples the runtime and mirrors the snapshot into reg's
// gauges (heap_inuse_bytes, heap_alloc_bytes, num_goroutine,
// gc_pause_p99_seconds) and its counter gc_cycles_total, returning the
// snapshot so callers can also embed it in status documents.
func CollectRuntime(reg *Registry) RuntimeStats {
	rs := ReadRuntime()
	reg.Gauge("heap_inuse_bytes").Set(float64(rs.HeapInuseBytes))
	reg.Gauge("heap_alloc_bytes").Set(float64(rs.HeapAllocBytes))
	reg.Gauge("num_goroutine").Set(float64(rs.NumGoroutine))
	reg.Gauge("gc_pause_p99_seconds").Set(rs.GCPauseP99Seconds)
	reg.Counter("gc_cycles_total").SyncTo(int64(rs.NumGC))
	return rs
}
