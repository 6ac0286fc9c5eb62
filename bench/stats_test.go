package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// 100 samples: p90 has 10 beyond it, p91 only 9.
	s := seq(100)
	if v, err := percentile(s, 90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(s, 91); err == nil {
		t.Error("p91 of 100 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(seq(19), 50); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(seq(20), 50); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("a percentile of no samples must be refused")
	}
	if v := tailOrMax(seq(50), 99); v != 50 {
		t.Errorf("tailOrMax falls back to the maximum, got %v", v)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are statistics.quantiles(values, n=4) from Python 3.
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{10, 12.5}, 9.375, 13.125},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestWindowMedian(t *testing.T) {
	// Four windows of 100 items ending at 1, 2, 4 and 5 s: rates 100, 100,
	// 50, 100 — the slow window does not move the median.
	rates := windowRates(0, []float64{1, 2, 4, 5}, 100)
	want := []float64{100, 100, 50, 100}
	for i := range want {
		if rates[i] != want[i] {
			t.Fatalf("windowRates = %v, want %v", rates, want)
		}
	}
	if m := median(rates); m != 100 {
		t.Errorf("median window = %v, want 100", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", m)
	}
}
