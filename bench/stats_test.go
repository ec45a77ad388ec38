package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for q, want := range map[float64]float64{0: 10, 0.5: 30, 1: 50, 0.25: 20, 0.125: 15} {
		if got := percentile(s, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n          int
		want, tail float64
	}{
		{5, 0.99, 0.5},       // too few for any tail
		{19, 0.99, 0.5},      // still fewer than 2 x 10
		{20, 0.99, 0.5},      // 10 beyond the median exactly
		{40, 0.99, 0.75},     // 10 of 40 lie beyond p75
		{1000, 0.99, 0.99},   // 10 of 1000 lie beyond p99
		{50000, 0.99, 0.99},  // never above the wanted quantile
		{5000, 0.999, 0.998}, // p99.9 wanted, p99.8 supported
		{10000, 0.999, 0.999},
	}
	for _, c := range cases {
		if got := tailQuantile(c.n, c.want); math.Abs(got-c.tail) > 1e-12 {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", c.n, c.want, got, c.tail)
		}
	}
	for n := 20; n < 3000; n += 7 {
		q := tailQuantile(n, 0.999)
		if beyond := float64(n) * (1 - q); beyond < tailBeyond-1e-9 {
			t.Fatalf("n=%d: only %.2f samples beyond p%.2f", n, beyond, q*100)
		}
	}
}

func TestSummarise(t *testing.T) {
	v := make([]float64, 2000)
	for i := range v {
		v[i] = float64(2000 - i) // unsorted on purpose
	}
	s := summarise(v, 0.99)
	if s.N != 2000 || s.TailQ != 0.99 || math.Abs(s.P50-1000.5) > 1e-9 || math.Abs(s.Tail-1980.01) > 1e-9 {
		t.Errorf("summarise = %+v", s)
	}
	if v[0] != 2000 {
		t.Error("summarise reordered its input")
	}
}

// The expected values are what Python prints for
// (q[2]-q[0])/median(v) with q = statistics.quantiles(v, n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	cases := []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 10, 10, 10}, 0},
		{[]float64{3, 1, 2}, (3.0 - 1.0) / 2},
		{[]float64{100, 104, 98, 101, 97, 103, 99, 102, 100, 100}, (102.25 - 98.75) / 100},
	}
	for _, c := range cases {
		if got := quartileSpread(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}
