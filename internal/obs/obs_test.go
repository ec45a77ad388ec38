package obs

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialsim/internal/stats"
)

func TestBucketIndexMonotoneAndBounded(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, 1 << 40, math.MaxInt64} {
		idx := bucketIndex(v)
		if idx <= prev && v != 0 {
			t.Fatalf("bucketIndex not monotone at %d: %d <= %d", v, idx, prev)
		}
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
		}
		lo, hi := bucketBounds(idx)
		if v < lo || (v >= hi && hi != math.MaxInt64) {
			t.Fatalf("value %d outside its bucket [%d, %d)", v, lo, hi)
		}
		prev = idx
	}
}

func TestBucketRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		v := rng.Int63n(int64(time.Hour))
		lo, hi := bucketBounds(bucketIndex(v))
		if v >= 16 {
			if rel := float64(hi-lo) / float64(lo); rel > 1.0/16+1e-9 {
				t.Fatalf("bucket [%d,%d) width %.4f relative, want <= 6.25%%", lo, hi, rel)
			}
		}
	}
}

// Histogram quantiles must agree with the exact sample percentile within the
// bucket resolution (6.25% relative) across sample shapes.
func TestHistogramQuantileVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := map[string]func() int64{
		"uniform":   func() int64 { return rng.Int63n(int64(50 * time.Millisecond)) },
		"lognormal": func() int64 { return int64(math.Exp(rng.NormFloat64()*1.5+12) * 1000) },
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return int64(100*time.Millisecond) + rng.Int63n(int64(20*time.Millisecond))
			}
			return int64(time.Millisecond) + rng.Int63n(int64(time.Millisecond))
		},
	}
	for name, draw := range shapes {
		h := NewHistogram()
		xs := make([]float64, 0, 20000)
		for i := 0; i < 20000; i++ {
			v := draw()
			h.Observe(time.Duration(v))
			xs = append(xs, float64(v))
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			exact := stats.Percentile(xs, q*100)
			got := float64(h.Quantile(q))
			tol := exact * 0.10 // bucket width 6.25% + interpolation slack
			if math.Abs(got-exact) > tol {
				t.Errorf("%s p%g: histogram %.0f vs exact %.0f (tol %.0f)", name, q*100, got, exact, tol)
			}
		}
		if h.Count() != 20000 {
			t.Fatalf("%s count = %d", name, h.Count())
		}
	}
}

func TestHistogramEdges(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Min() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Observe(-5 * time.Second) // clamps to 0
	h.Observe(3 * time.Millisecond)
	if h.Min() != 0 {
		t.Fatalf("min = %v, want 0 (negative clamp)", h.Min())
	}
	if h.Max() != 3*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	if q := h.Quantile(1); q != 3*time.Millisecond {
		t.Fatalf("p100 = %v, want exact max", q)
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("p0 = %v, want exact min", q)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("hits_total")
			h := r.Histogram(Name("lat_seconds", "class", "range"))
			for i := 0; i < 2000; i++ {
				c.Inc()
				c.Add(2)
				h.Observe(time.Duration(i) * time.Microsecond)
				if i%500 == 0 {
					r.Gauge("depth", func() float64 { return float64(i) })
					var buf bytes.Buffer
					r.WritePrometheus(&buf)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("hits_total").Value(); got != 8*2000*3 {
		t.Fatalf("counter = %d, want %d", got, 8*2000*3)
	}
	if got := r.Histogram(Name("lat_seconds", "class", "range")).Count(); got != 8*2000 {
		t.Fatalf("histogram count = %d", got)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("requests_total", "route", "/v1/range")).Add(7)
	r.Gauge("inflight", func() float64 { return 3 })
	h := r.Histogram(Name("latency_seconds", "class", "knn"))
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * time.Millisecond)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE requests_total counter\n",
		`requests_total{route="/v1/range"} 7`,
		"# TYPE inflight gauge\n",
		"inflight 3",
		"# TYPE latency_seconds histogram\n",
		`latency_seconds_bucket{class="knn",le="+Inf"} 100`,
		`latency_seconds_count{class="knn"} 100`,
		`latency_seconds{class="knn",quantile="0.5"}`,
		`latency_seconds{class="knn",quantile="0.999"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// Cumulative buckets must be non-decreasing and end at the count.
	var last int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "latency_seconds_bucket") {
			continue
		}
		var v int64
		if _, err := fmtSscanLast(line, &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative: %q after %d", line, last)
		}
		last = v
	}
	if last != 100 {
		t.Fatalf("final cumulative bucket = %d, want 100", last)
	}
}

func fmtSscanLast(line string, v *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	var err error
	*v, err = parseInt64(line[i+1:])
	return 1, err
}

func parseInt64(s string) (int64, error) {
	var v int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, &parseErr{s}
		}
		v = v*10 + int64(c-'0')
	}
	return v, nil
}

type parseErr struct{ s string }

func (e *parseErr) Error() string { return "not an integer: " + e.s }

func TestNameAndSplit(t *testing.T) {
	n := Name("x_total", "a", "1", "b", "2")
	if n != `x_total{a="1",b="2"}` {
		t.Fatalf("Name = %q", n)
	}
	base, labels := splitName(n)
	if base != "x_total" || labels != `a="1",b="2"` {
		t.Fatalf("splitName = %q, %q", base, labels)
	}
	if Name("plain") != "plain" {
		t.Fatal("label-less Name should be identity")
	}
	base, labels = splitName("plain")
	if base != "plain" || labels != "" {
		t.Fatalf("splitName(plain) = %q, %q", base, labels)
	}
}

func TestTraceTree(t *testing.T) {
	tr := NewTrace("query")
	root := tr.Root()
	admit := root.Child("admit")
	admit.End()
	fan := root.Child("fanout")
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := fan.Child("shard_visit")
			s.SetShard(i)
			s.Set("results", i*10)
			s.End()
		}(i)
	}
	wg.Wait()
	fan.End()
	out := tr.Finish()
	if out.Stage != "query" || len(out.Children) != 2 {
		t.Fatalf("root = %+v", out)
	}
	var fanJSON *SpanJSON
	for _, c := range out.Children {
		if c.Stage == "fanout" {
			fanJSON = c
		}
	}
	if fanJSON == nil || len(fanJSON.Children) != 3 {
		t.Fatalf("fanout children = %+v", fanJSON)
	}
	seen := map[int]bool{}
	for _, s := range fanJSON.Children {
		if s.Shard == nil {
			t.Fatalf("shard span missing shard: %+v", s)
		}
		seen[*s.Shard] = true
		if s.Attrs["results"] != *s.Shard*10 {
			t.Fatalf("attrs = %+v", s.Attrs)
		}
		if s.DurationMicros < 0 || s.OffsetMicros < 0 {
			t.Fatalf("negative timing: %+v", s)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("shards seen = %v", seen)
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	if tr.Root() != nil || tr.Finish() != nil {
		t.Fatal("nil trace should yield nil root and nil JSON")
	}
	var s *Span
	c := s.Child("x") // must not panic, must stay nil
	if c != nil {
		t.Fatal("nil span child should be nil")
	}
	c.End()
	c.SetShard(3)
	c.Set("k", "v")
	ctx := context.Background()
	if FromContext(ctx) != nil || SpanFromContext(ctx) != nil {
		t.Fatal("trace-less context should yield nil")
	}
	ctx = WithTrace(ctx, NewTrace("q"))
	if FromContext(ctx) == nil || SpanFromContext(ctx) == nil {
		t.Fatal("trace lost in context")
	}
}

func TestTraceUnendedSpansClosedAtFinish(t *testing.T) {
	tr := NewTrace("q")
	child := tr.Root().Child("open")
	_ = child // never ended
	time.Sleep(2 * time.Millisecond)
	out := tr.Finish()
	if len(out.Children) != 1 {
		t.Fatalf("children = %d", len(out.Children))
	}
	if out.Children[0].DurationMicros <= 0 {
		t.Fatalf("unended span should be closed at finish: %+v", out.Children[0])
	}
	if out.DurationMicros < out.Children[0].DurationMicros {
		t.Fatalf("root shorter than child: %d < %d", out.DurationMicros, out.Children[0].DurationMicros)
	}
}

// Observing with metrics on must not allocate: the serving layer keeps
// histograms enabled for every query.
func TestObserveZeroAlloc(t *testing.T) {
	h := NewHistogram()
	var c Counter
	n := testing.AllocsPerRun(1000, func() {
		h.Observe(123 * time.Microsecond)
		c.Inc()
	})
	if n != 0 {
		t.Fatalf("Observe allocates %.1f per run, want 0", n)
	}
}

func TestRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeGauges(r)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_gc_pause_seconds_total", "go_gc_cycles_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime gauges missing %s", want)
		}
	}
}
