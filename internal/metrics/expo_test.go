package metrics

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestSeriesKeyCanonical(t *testing.T) {
	a, metaA := seriesKey("reqs", []Label{L("zone", "/usa"), L("app", "x")})
	b, metaB := seriesKey("reqs", []Label{L("app", "x"), L("zone", "/usa")})
	if a != b {
		t.Errorf("label order changed the series key: %q vs %q", a, b)
	}
	if want := `reqs{app="x",zone="/usa"}`; a != want {
		t.Errorf("key = %q, want %q", a, want)
	}
	if metaA != metaB || metaA.family != "reqs" {
		t.Errorf("meta = %+v vs %+v", metaA, metaB)
	}
	if got := escapeLabelValue("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Errorf("escape = %q", got)
	}
}

func TestWriteToExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("gossips_total").Add(3)
	r.CounterWith("deliveries_total", L("zone", "/usa")).Add(5)
	r.CounterWith("deliveries_total", L("zone", "/eu")).Add(2)
	r.Gauge("load").Set(0.25)
	h := r.Histogram("latency_seconds")
	h.Observe(1)
	h.Observe(3)

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE gossips_total counter\n",
		"gossips_total 3\n",
		"# TYPE deliveries_total counter\n",
		`deliveries_total{zone="/eu"} 2` + "\n",
		`deliveries_total{zone="/usa"} 5` + "\n",
		"# TYPE load gauge\n",
		"load 0.25\n",
		"# TYPE latency_seconds summary\n",
		`latency_seconds{quantile="0.5"} 1` + "\n",
		`latency_seconds{quantile="0.99"} 3` + "\n",
		"latency_seconds_sum 4\n",
		"latency_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Labeled series of one family must be sorted under a single TYPE line.
	if strings.Count(out, "# TYPE deliveries_total") != 1 {
		t.Errorf("family rendered with multiple TYPE lines:\n%s", out)
	}
	if strings.Index(out, `zone="/eu"`) > strings.Index(out, `zone="/usa"`) {
		t.Errorf("labeled series not sorted:\n%s", out)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
}

func TestHistogramReservoir(t *testing.T) {
	h := &Histogram{}
	h.SetReservoir(8)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if got := h.Count(); got != 100 {
		t.Errorf("Count = %d, want exact 100", got)
	}
	if got := h.Sum(); got != 5050 {
		t.Errorf("Sum = %g, want exact 5050", got)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("Min/Max = %g/%g, want exact 1/100", h.Min(), h.Max())
	}
	h.mu.Lock()
	retained := len(h.samples)
	h.mu.Unlock()
	if retained != 8 {
		t.Errorf("retained %d samples, want 8", retained)
	}
	if q := h.Quantile(0.5); q < 1 || q > 100 {
		t.Errorf("reservoir quantile %g outside observed range", q)
	}
	// Trimming an over-full exact histogram on SetReservoir.
	e := &Histogram{}
	for i := 1; i <= 20; i++ {
		e.Observe(float64(i))
	}
	e.SetReservoir(4)
	e.mu.Lock()
	trimmed := append([]float64(nil), e.samples...)
	e.mu.Unlock()
	if len(trimmed) != 4 {
		t.Fatalf("trimmed to %d samples, want 4", len(trimmed))
	}
	for i, v := range trimmed {
		if want := float64(17 + i); v != want {
			t.Errorf("trimmed[%d] = %g, want %g (oldest-first trim)", i, v, want)
		}
	}
	if e.Count() != 20 || e.Min() != 1 || e.Max() != 20 {
		t.Errorf("exact stats lost on trim: count=%d min=%g max=%g", e.Count(), e.Min(), e.Max())
	}
}

func TestHistogramUnboundedStaysExact(t *testing.T) {
	h := &Histogram{}
	for i := 100; i >= 1; i-- {
		h.Observe(float64(i))
	}
	if q := h.Quantile(0.5); q != 50 {
		t.Errorf("p50 = %g, want exact 50", q)
	}
	if q := h.Quantile(0.99); q != 99 {
		t.Errorf("p99 = %g, want exact 99", q)
	}
}

func TestRegisterHistogram(t *testing.T) {
	r := NewRegistry()
	h := &Histogram{}
	h.Observe(2.5)
	r.RegisterHistogram("delivery_latency_seconds", h)
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "delivery_latency_seconds_count 1") {
		t.Errorf("registered histogram missing from exposition:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "delivery_latency_seconds_sum 2.5") {
		t.Errorf("registered histogram's sum missing from exposition:\n%s", sb.String())
	}
	h.Observe(1)
	sb.Reset()
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "delivery_latency_seconds_count 2") {
		t.Errorf("registry copied the histogram instead of adopting it:\n%s", sb.String())
	}
}

func TestSnapshotMinMax(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.Observe(2)
	h.Observe(8)
	h.Observe(5)
	if h.Min() != 2 || h.Max() != 8 {
		t.Errorf("min/max = %g/%g, want 2/8", h.Min(), h.Max())
	}
}
