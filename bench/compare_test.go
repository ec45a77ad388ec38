package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "read_ops_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		ms   metricSpec
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 106, 104, 105, 105}, "ok"},
		{lower, steady, []float64{115, 116, 114, 115, 115}, "regressed"},
		{lower, steady, []float64{80, 81, 79, 80, 80}, "ok"}, // better is never a regression
		{higher, steady, []float64{85, 86, 84, 85, 85}, "regressed"},
		{higher, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{lower, steady, []float64{70, 150, 100, 130, 60}, "unresolved"}, // spread wider than the bound
	}
	for i, c := range cases {
		if got, _, _ := verdict(c.ms, c.a, c.b); got != c.want {
			t.Errorf("case %d: verdict = %s, want %s", i, got, c.want)
		}
	}
}
