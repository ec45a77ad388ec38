package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free log-linear latency histogram: values (nanoseconds)
// land in buckets whose width is 1/16th of their magnitude, so a quantile
// estimate is within ~6.25% of the exact sample quantile at any scale from
// nanoseconds to hours. Observe is a handful of atomic operations and never
// allocates, which is what lets the serving layer keep it on for every query.
//
// Bucketing: values below 16 get unit-width buckets; larger values are keyed
// by (octave, 4 mantissa bits below the MSB) — the classic log-linear scheme
// (Go runtime metrics, HDR histogram) with 16 sub-buckets per power of two.
type Histogram struct {
	counts [numBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
	min    atomic.Int64 // nanoseconds; valid when count > 0
	max    atomic.Int64 // nanoseconds
}

// numBuckets covers every non-negative int64: 16 unit buckets plus 59 octaves
// of 16 sub-buckets.
const numBuckets = 960

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// bucketIndex maps a non-negative value onto its bucket.
func bucketIndex(v int64) int {
	if v < 16 {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 5
	return ((e + 1) << 4) | int((v>>uint(e))&15)
}

// bucketBounds returns the [lo, hi) value range of bucket idx.
func bucketBounds(idx int) (lo, hi int64) {
	if idx < 16 {
		return int64(idx), int64(idx) + 1
	}
	e := (idx >> 4) - 1
	lo = (16 + int64(idx&15)) << uint(e)
	hi = lo + (1 << uint(e))
	if hi < lo { // top bucket reaches past MaxInt64
		hi = math.MaxInt64
	}
	return lo, hi
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() time.Duration {
	if h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() time.Duration {
	if h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.min.Load())
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile estimates the q-th quantile (q in [0, 1]) by linear interpolation
// within the target bucket, clamped to the observed min/max so the extreme
// quantiles stay exact. Concurrent observations make the estimate a snapshot
// blur, not an error.
func (h *Histogram) Quantile(q float64) time.Duration {
	return h.SnapshotInto(nil).Quantile(q)
}

// HistogramSnapshot is a point-in-time copy of a histogram, so the quantiles
// and totals read from one snapshot describe the same observations.
type HistogramSnapshot struct {
	Counts []int64
	Count  int64
	Sum    int64
	Min    int64 // math.MaxInt64 when empty
	Max    int64
}

// SnapshotInto copies the histogram into s (allocating when s is nil) and
// returns it.
func (h *Histogram) SnapshotInto(s *HistogramSnapshot) *HistogramSnapshot {
	if s == nil {
		s = &HistogramSnapshot{Counts: make([]int64, numBuckets), Min: math.MaxInt64}
	}
	if len(s.Counts) != numBuckets {
		s.Counts = make([]int64, numBuckets)
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	return s
}

// Quantile estimates the q-th quantile of the snapshot (see
// Histogram.Quantile).
func (s *HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(s.Min)
	}
	if q >= 1 {
		return time.Duration(s.Max)
	}
	// Closest-rank position matching stats.Percentile's convention: rank in
	// [0, Count-1], interpolated within the bucket holding it.
	rank := q * float64(s.Count-1)
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		// Bucket i holds ranks [cum, cum+c).
		if rank < float64(cum+c) {
			lo, hi := bucketBounds(i)
			frac := (rank - float64(cum) + 0.5) / float64(c)
			v := float64(lo) + frac*float64(hi-lo)
			if v < float64(s.Min) {
				v = float64(s.Min)
			}
			if v > float64(s.Max) {
				v = float64(s.Max)
			}
			return time.Duration(v)
		}
		cum += c
	}
	return time.Duration(s.Max)
}

// writePrometheus renders the histogram under the given (possibly
// inline-labeled) series name: cumulative le buckets collapsed to power-of-two
// boundaries (exact — log-linear sub-buckets nest inside octaves), _sum and
// _count, plus quantile gauge rows. Values are rendered in seconds, matching
// the *_seconds naming convention of the serving layer's series.
func (h *Histogram) writePrometheus(w io.Writer, name string) {
	s := h.SnapshotInto(nil)
	base, labels := splitName(name)
	sep := ""
	if labels != "" {
		sep = ","
	}
	fmt.Fprintf(w, "# TYPE %s histogram\n", base)
	var cum int64
	emitted := false
	for i := 0; i < numBuckets; {
		// Octave block: unit buckets emit individually, then 16 per power of two.
		next := i + 1
		if i >= 16 {
			next = (i | 15) + 1
		}
		var blockCount int64
		for j := i; j < next; j++ {
			blockCount += s.Counts[j]
		}
		cum += blockCount
		if blockCount > 0 || (emitted && cum < s.Count) {
			_, hi := bucketBounds(next - 1)
			fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", base, labels, sep, float64(hi)/1e9, cum)
			emitted = true
		}
		i = next
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", base, labels, sep, s.Count)
	// _sum/_count carry the base labels only; omit the braces entirely for an
	// unlabeled series.
	body := ""
	if labels != "" {
		body = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", base, body, float64(s.Sum)/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", base, body, s.Count)
	for _, q := range [...]float64{0.5, 0.9, 0.99, 0.999} {
		fmt.Fprintf(w, "%s{%s%squantile=\"%g\"} %g\n", base, labels, sep, q, float64(s.Quantile(q))/1e9)
	}
}
