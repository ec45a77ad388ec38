package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a percentile before it is
// reported.
const tailBeyond = 10

// sortedCopy returns the samples in ascending order without touching the
// input.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile reads the q-quantile (0..1) of ascending samples by linear
// interpolation between the two nearest ranks. Empty input gives NaN.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// tailQuantile is the quantile a tail of n samples is read at: want, when at
// least tailBeyond samples lie beyond it, otherwise the highest quantile
// that still has tailBeyond samples beyond it (never below the median). With
// fewer than 2*tailBeyond samples only the median is supported.
func tailQuantile(n int, want float64) float64 {
	if n < 2*tailBeyond {
		return 0.5
	}
	return min(want, 1-float64(tailBeyond)/float64(n))
}

// timing summarises one set of latency samples.
type timing struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailQ float64 `json:"tail_q"` // the quantile Tail was read at
	Tail  float64 `json:"tail"`
}

// summarise reads the median and the tail of the samples; wantTail is the
// tail quantile to report when the sample count supports it.
func summarise(samples []float64, wantTail float64) timing {
	s := sortedCopy(samples)
	q := tailQuantile(len(s), wantTail)
	return timing{N: len(s), P50: percentile(s, 0.5), TailQ: q, Tail: percentile(s, q)}
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quartileSpread is the distance between the first and third quartile of the
// values as a share of their median, with the quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (exclusive method), which
// is what the driver uses.
func quartileSpread(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	if n < 2 {
		return 0
	}
	quart := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	med := percentile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (quart(3) - quart(1)) / math.Abs(med)
}
