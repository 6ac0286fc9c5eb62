package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("fresh counter not zero")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	c.Add(-10)
	if c.Value() != 5 {
		t.Fatal("negative Add must be ignored")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("Value = %d, want 8000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("Value = %v, want 3.5", g.Value())
	}
	g.Set(-1)
	if g.Value() != -1 {
		t.Fatalf("Value = %v, want -1", g.Value())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 50.5 {
		t.Fatalf("Mean = %v, want 50.5", h.Mean())
	}
	if h.Sum() != 5050 {
		t.Fatalf("Sum = %v, want 5050", h.Sum())
	}
	if got := h.Quantile(0.5); got != 50 {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if got := h.Quantile(0.99); got != 99 {
		t.Fatalf("p99 = %v, want 99", got)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	var h Histogram
	h.Observe(10)
	_ = h.Quantile(0.5)
	h.Observe(1)
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("min after late observe = %v, want 1", got)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	var h Histogram
	h.ObserveDuration(1500 * time.Millisecond)
	if got := h.Mean(); got != 1.5 {
		t.Fatalf("Mean = %v, want 1.5", got)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(1)
	h.Reset()
	if h.Count() != 0 {
		t.Fatal("Reset did not clear samples")
	}
}

func TestRegistryReturnsSameInstance(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x")
	c1.Inc()
	if r.Counter("x").Value() != 1 {
		t.Fatal("Counter did not return the same instance")
	}
	g := r.Gauge("y")
	g.Set(2)
	if r.Gauge("y").Value() != 2 {
		t.Fatal("Gauge did not return the same instance")
	}
	h := r.Histogram("z")
	h.Observe(1)
	if r.Histogram("z").Count() != 1 {
		t.Fatal("Histogram did not return the same instance")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("msgs").Add(3)
	r.Gauge("load").Set(0.5)
	r.Histogram("latency").Observe(2)
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\nmsgs 3\n", "\nload 0.5\n", "\nlatency_count 1\n"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}
