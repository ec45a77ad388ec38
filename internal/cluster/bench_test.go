package cluster

import (
	"context"
	"math/rand"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/serve"
)

// benchFleet is the fleet the harness's cluster workload runs: 3 nodes,
// replication 2, two shards per node store.
func benchFleet(b *testing.B, n int) *Coordinator {
	b.Helper()
	trs := make([]Transport, 3)
	for i := range trs {
		st, err := serve.New(serve.Config{Shards: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(st.Close)
		trs[i] = NewNode(nodeName(i), st)
	}
	co, err := New(Config{Transports: trs, Replication: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(co.Close)
	if _, err := co.Bootstrap(clusterItems(n, 1)); err != nil {
		b.Fatal(err)
	}
	return co
}

// benchRange replays range queries of the given half-extent, centred
// uniformly in the 100^3 universe of clusterItems.
func benchRange(b *testing.B, half float64) {
	co := benchFleet(b, 100000)
	rng := rand.New(rand.NewSource(2))
	boxes := make([]geom.AABB, 256)
	for i := range boxes {
		c := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		boxes[i] = geom.AABBFromCenter(c, geom.V(half, half, half))
	}
	ctx := context.Background()
	fan, items := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := co.Range(ctx, boxes[i%len(boxes)])
		if rep.Err != nil || rep.Degraded {
			b.Fatalf("range: err=%v degraded=%v", rep.Err, rep.Degraded)
		}
		fan += rep.FanOut
		items += len(rep.Items)
	}
	b.ReportMetric(float64(fan)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(items)/float64(b.N), "items/op")
}

// BenchmarkCoordinatorRangeSmall: ~10 items per reply, fan-out cost dominates.
func BenchmarkCoordinatorRangeSmall(b *testing.B) { benchRange(b, 1) }

// BenchmarkCoordinatorRangeScan: ~10 % of the dataset per reply, the gather
// dominates.
func BenchmarkCoordinatorRangeScan(b *testing.B) { benchRange(b, 23) }

func BenchmarkCoordinatorKNN(b *testing.B) {
	co := benchFleet(b, 100000)
	rng := rand.New(rand.NewSource(3))
	points := make([]geom.Vec3, 256)
	for i := range points {
		points[i] = geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
	}
	ctx := context.Background()
	fan := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := co.KNN(ctx, points[i%len(points)], 8)
		if rep.Err != nil || rep.Degraded || len(rep.Items) != 8 {
			b.Fatalf("knn: err=%v degraded=%v items=%d", rep.Err, rep.Degraded, len(rep.Items))
		}
		fan += rep.FanOut
	}
	b.ReportMetric(float64(fan)/float64(b.N), "nodes/op")
}
