package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"

	"spatialsim/internal/cluster"
	"spatialsim/internal/datagen"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/persist"
	"spatialsim/internal/planner"
	"spatialsim/internal/rtree"
	"spatialsim/internal/serve"
)

// The traced run replays the head of client 0's request streams through each
// layer's public door in turn, innermost first, on one goroutine, and records
// one span per call. It measures layers from outside: spans inside the
// program are a later change.

const traceWorkload = "trace"

// Trace classes: the two range sizes are separate classes because they load
// different layers.
const (
	tcSmall = "range_small"
	tcScan  = "range_scan"
	tcKNN   = "knn"
	tcJoin  = "join"
	tcBatch = "range_scan_batch"
)

// Layer names are the repository's modules.
const (
	lyGeom       = "geom"
	lyRTree      = "rtree"
	lyPersist    = "persist"
	lyEpoch      = "serve.epoch"
	lyStore      = "serve.store"
	lyJoin       = "join"
	lyServer     = "spatialserver"
	lyCluster    = "cluster"
	lyClusterSrv = "spatialcluster"
)

// spanParent is the next-outer layer whose span of the same query is a
// span's parent. serve.store has two callers (spatialserver and cluster); its
// spans hang under spatialserver, and cluster's self time is still taken
// over serve.store (see layerBelow).
var spanParent = map[string]string{
	lyGeom:    lyRTree,
	lyRTree:   lyEpoch,
	lyPersist: lyEpoch,
	lyEpoch:   lyStore,
	lyStore:   lyServer,
	lyJoin:    lyServer,
	lyCluster: lyClusterSrv,
}

// layerBelow is the layer a layer's self time is taken over.
var layerBelow = map[string]string{
	lyEpoch:      lyRTree,
	lyStore:      lyEpoch,
	lyServer:     lyStore,
	lyCluster:    lyStore,
	lyClusterSrv: lyCluster,
}

// span is one timed call into a layer. Start and End are nanoseconds since
// the trace began; Parent is the ID of the same query's span at the
// next-outer layer, or -1.
type span struct {
	ID     int    `json:"id"`
	Layer  string `json:"layer"`
	Class  string `json:"class"`
	Query  int    `json:"query_id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

type spanKey struct {
	layer, class string
	query        int
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(layer, class string, query int, start, end time.Time) {
	t.spans = append(t.spans, span{
		ID: len(t.spans), Layer: layer, Class: class, Query: query,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: -1,
	})
}

// resolveParents links every span to the same query's span one layer out.
func resolveParents(spans []span) {
	byKey := make(map[spanKey]int, len(spans))
	for _, s := range spans {
		byKey[spanKey{s.Layer, s.Class, s.Query}] = s.ID
	}
	for i := range spans {
		s := &spans[i]
		if outer, ok := spanParent[s.Layer]; ok {
			if id, ok := byKey[spanKey{outer, s.Class, s.Query}]; ok {
				s.Parent = id
			}
		}
	}
}

// durationsUS returns the span durations of one (layer, class), in
// microseconds.
func durationsUS(spans []span, layer, class string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Layer == layer && s.Class == class {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfUS is a layer's overhead over the layer below on the same queries: its
// median minus the median of the layer below.
func selfUS(spans []span, layer, class string) float64 {
	return median(durationsUS(spans, layer, class)) - median(durationsUS(spans, layerBelow[layer], class))
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceQueries is the replayed request set.
type traceQueries struct {
	small, scan, knn []request
	joins            int
	updates          [][]index.Item
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// traceRun carries the state of one traced run.
type traceRun struct {
	h   *harness
	out io.Writer
	tr  *tracer
	res *runResult
	q   traceQueries
	// counts[class][query] is the result count the innermost layer gave;
	// every outer layer must agree.
	counts map[string][]int
}

func (t *traceRun) set(name string, v float64, unit string) {
	t.res.Metrics[name] = metric{v, unit}
}

// check compares an outer layer's result count with the innermost layer's.
func (t *traceRun) check(layer, class string, query, got int) {
	t.res.Attempted++
	want := t.counts[class][query]
	if class == tcScan && (layer == lyServer || layer == lyClusterSrv) && want > scanLim {
		want = scanLim
	}
	if got != want {
		t.res.fail("%s %s query %d: %d results, %s has %d", layer, class, query, got, lyRTree, want)
	}
}

// replay times door once per query of a class and records the spans. door
// returns the result count.
func (t *traceRun) replay(layer, class string, n int, door func(i int) int) {
	first := t.counts[class] == nil
	if first {
		t.counts[class] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		start := time.Now()
		got := door(i)
		t.tr.add(layer, class, i, start, time.Now())
		if first {
			t.counts[class][i] = got
			t.res.Attempted++
		} else {
			t.check(layer, class, i, got)
		}
	}
}

// layerTimes sets <layer>.<class>_us for the three read classes, and the
// matching self times when the layer has one below.
func (t *traceRun) layerTimes(layer string) {
	for _, class := range []string{tcSmall, tcScan, tcKNN} {
		t.set(layer+"."+class+"_us", median(durationsUS(t.tr.spans, layer, class)), "us")
		if _, ok := layerBelow[layer]; ok {
			t.set(layer+"."+class+"_self_us", selfUS(t.tr.spans, layer, class), "us")
		}
	}
}

func countVisit(n *int) func(index.Item) bool {
	return func(index.Item) bool { *n++; return true }
}

// repeatMS runs fn n times and returns the median duration in milliseconds.
func repeatMS(n int, fn func(i int)) float64 {
	v := make([]float64, n)
	for i := range v {
		start := time.Now()
		fn(i)
		v[i] = micros(time.Since(start)) / 1e3
	}
	return median(v)
}

// replayRanges replays both range classes through a RangeVisit-shaped door.
func (t *traceRun) replayRanges(layer string, rangeVisit func(geom.AABB, func(index.Item) bool)) {
	for _, cl := range []struct {
		class string
		reqs  []request
	}{{tcSmall, t.q.small}, {tcScan, t.q.scan}} {
		t.replay(layer, cl.class, len(cl.reqs), func(i int) int {
			n := 0
			rangeVisit(cl.reqs[i].box, countVisit(&n))
			return n
		})
	}
}

func runTrace(h *harness, p runParams, spanPath string, stdout io.Writer) (*runResult, error) {
	t := &traceRun{
		h: h, out: stdout,
		tr: &tracer{t0: time.Now()},
		res: &runResult{Workload: traceWorkload, Seed: p.seed,
			Metrics: make(map[string]metric), Timings: make(map[string]timing)},
		counts: make(map[string][]int),
	}
	nSmall, nKNN, nScan, nJoin := 20000, 5000, 1000, 5
	if p.items < fullItems {
		nSmall, nKNN, nScan, nJoin = 400, 200, 100, 2
	}
	ds := generateDataset(p.items)
	items := datasetItems(ds)
	st := newStream(ds, p.seed, 0, [3]int{100, 0, 0})
	for i := 0; i < nSmall; i++ {
		t.q.small = append(t.q.small, st.nextOf(classRange))
	}
	for i := 0; i < nKNN; i++ {
		t.q.knn = append(t.q.knn, st.nextOf(classKNN))
	}
	for i := 0; i < nScan; i++ {
		t.q.scan = append(t.q.scan, st.nextOf(classScan))
	}
	t.q.joins = nJoin
	mv := newMover(p.seed, items)
	for i := 0; i < 5*4; i++ { // five batches for each of the four update doors
		t.q.updates = append(t.q.updates, mv.nextBatch())
	}

	whole := t.traceRTree(items)
	t.traceGeom(items)
	if err := t.tracePersist(items, whole); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if err := t.traceStore(items); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if err := t.traceServer(items); err != nil {
		return nil, fmt.Errorf("spatialserver: %w", err)
	}
	if err := t.traceCluster(items); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if err := t.traceClusterServer(items); err != nil {
		return nil, fmt.Errorf("spatialcluster: %w", err)
	}

	for _, layer := range []string{lyEpoch, lyStore, lyServer, lyCluster, lyClusterSrv} {
		t.layerTimes(layer)
	}
	resolveParents(t.tr.spans)
	if err := writeSpans(spanPath, t.tr.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(t.tr.spans), spanPath)
	fmt.Fprintf(stdout, "trace: 1-client p50 through %s: range_small %.1f us, knn %.1f us, range_scan %.1f us; "+
		"set against the untraced lookup and scan workloads' medians, the difference is the tracing overhead plus the second client\n",
		lyServer, t.res.Metrics[lyServer+"."+tcSmall+"_us"].Value, t.res.Metrics[lyServer+"."+tcKNN+"_us"].Value,
		t.res.Metrics[lyServer+"."+tcScan+"_us"].Value)
	return t.res, nil
}

// traceRTree times the index door on one tree over the whole dataset and
// reads the paper's yardstick (intersection tests per result) off Counters.
func (t *traceRun) traceRTree(items []index.Item) *rtree.Compact {
	var c *rtree.Compact
	t.set("rtree.freeze_ms", repeatMS(3, func(int) { c = rtree.FreezeItems(items, rtree.Config{}) }), "ms")
	t.set("rtree.bytes_per_item", float64(c.BinarySize())/float64(len(items)), "bytes")

	classRun := func(class string, reqs []request, suffix string) {
		before := c.Counters().Snapshot()
		m0 := mallocs()
		t.replay(lyRTree, class, len(reqs), func(i int) int {
			n := 0
			c.RangeVisit(reqs[i].box, countVisit(&n))
			return n
		})
		allocs := float64(mallocs()-m0) / float64(len(reqs))
		after := c.Counters().Snapshot()
		results := float64(after.Results - before.Results)
		if results < 1 {
			results = 1
		}
		tests := float64(after.TreeIntersectTests - before.TreeIntersectTests + after.ElemIntersectTests - before.ElemIntersectTests)
		t.set("rtree.tests_per_result_"+suffix, tests/results, "ratio")
		t.set("rtree.node_visits_"+suffix, float64(after.NodeVisits-before.NodeVisits)/float64(len(reqs)), "count")
		if class == tcSmall {
			t.set("rtree.allocs_op", allocs, "count")
		}
	}
	classRun(tcSmall, t.q.small, "small")
	classRun(tcScan, t.q.scan, "scan")
	buf := make([]index.Item, 0, knnK)
	t.replay(lyRTree, tcKNN, len(t.q.knn), func(i int) int {
		buf = c.KNNInto(t.q.knn[i].point, knnK, buf[:0])
		return len(buf)
	})
	t.replay(lyRTree, tcBatch, len(t.q.scan), func(i int) int {
		n := 0
		c.RangeVisitBatch(t.q.scan[i].box, countVisit(&n))
		return n
	})
	for i, n := range t.counts[tcBatch] {
		if n != t.counts[tcScan][i] {
			t.res.fail("rtree batch kernel query %d: %d results, scalar kernel has %d", i, n, t.counts[tcScan][i])
		}
	}
	t.set("rtree.range_small_us", median(durationsUS(t.tr.spans, lyRTree, tcSmall)), "us")
	t.set("rtree.range_scan_us", median(durationsUS(t.tr.spans, lyRTree, tcScan)), "us")
	t.set("rtree.knn_us", median(durationsUS(t.tr.spans, lyRTree, tcKNN)), "us")
	t.set("rtree.batch_scan_us", median(durationsUS(t.tr.spans, lyRTree, tcBatch)), "us")
	return c
}

// traceGeom times the MBR kernel alone: AABB.Intersects over a flat slab of
// every leaf box, for the first few scan queries.
func (t *traceRun) traceGeom(items []index.Item) {
	slab := make([]geom.AABB, len(items))
	for i := range items {
		slab[i] = items[i].Box
	}
	n := 20
	if n > len(t.q.scan) {
		n = len(t.q.scan)
	}
	hits := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		q := t.q.scan[i].box
		qs := time.Now()
		for j := range slab {
			if q.Intersects(slab[j]) {
				hits++
			}
		}
		t.tr.add(lyGeom, tcScan, i, qs, time.Now())
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(n*len(slab))
	t.set("geom.intersect_ns_box", ns, "ns")
	t.res.Attempted++
	want := 0
	for i := 0; i < n; i++ {
		want += t.counts[tcScan][i]
	}
	if hits != want {
		t.res.fail("geom: %d slab hits, rtree has %d", hits, want)
	}
}

// tracePersist times the durable layer's doors: the zero-copy overlay of the
// serialized tree, SaveEpoch, LogBatch and both recovery paths.
func (t *traceRun) tracePersist(items []index.Item, whole *rtree.Compact) error {
	mc, _, err := persist.OpenMappedCompact(whole.AppendBinary(make([]byte, 0, whole.BinarySize())))
	if err != nil {
		return err
	}
	if !mc.ZeroCopy() {
		fmt.Fprintln(t.out, "trace: persist overlay fell back to a heap decode (unaligned buffer or big-endian host)")
	}
	t.replayRanges(lyPersist, mc.RangeVisit)
	t.set("persist.overlay_small_us", median(durationsUS(t.tr.spans, lyPersist, tcSmall)), "us")
	t.set("persist.overlay_scan_us", median(durationsUS(t.tr.spans, lyPersist, tcScan)), "us")

	dir, err := t.h.dataDir("trace-persist")
	if err != nil {
		return err
	}
	ps, err := persist.Open(dir, persist.Options{})
	if err != nil {
		return err
	}
	defer ps.Close()
	parts := serve.PartitionSTR(append([]index.Item(nil), items...), 4)
	recs := make([]persist.ShardRecord, len(parts))
	for i, part := range parts {
		recs[i] = persist.ShardRecord{Bounds: serve.BoundsOf(part), RTree: rtree.FreezeItems(part, rtree.Config{})}
	}
	var saveErr error
	t.set("persist.save_epoch_ms", repeatMS(3, func(i int) {
		if err := ps.SaveEpoch(uint64(i+1), 0, recs); err != nil {
			saveErr = err
		}
	}), "ms")
	if saveErr != nil {
		return saveErr
	}
	snaps := ps.Snapshots()
	t.set("persist.segment_bytes_per_item", float64(snaps[len(snaps)-1].SegSize)/float64(len(items)), "bytes")

	var logErr error
	logUS := repeatMS(20, func(i int) {
		if _, err := ps.LogBatch(toUpdates(t.q.updates[i%5])); err != nil {
			logErr = err
		}
	}) * 1e3
	if logErr != nil {
		return logErr
	}
	t.set("persist.log_batch_us", logUS, "us")

	for _, mode := range []struct {
		name   string
		mapped bool
	}{{"persist.recover_heap_ms", false}, {"persist.recover_mapped_ms", true}} {
		var recErr error
		ms := repeatMS(5, func(int) {
			rec, err := ps.Recover(persist.RecoverOptions{Mapped: mode.mapped})
			if err != nil {
				recErr = err
				return
			}
			t.res.Attempted++
			if rec.Items() != len(items) {
				t.res.fail("%s: recovered %d items, want %d", mode.name, rec.Items(), len(items))
			}
			if rec.Mapping != nil {
				recErr = rec.Mapping.Close()
			}
		})
		if recErr != nil {
			return recErr
		}
		t.set(mode.name, ms, "ms")
	}
	return nil
}

// newTraceStore opens an in-memory store shaped like the benchmark's
// spatialserver (-shards 4 -index rtree -cache 0, metrics on), with the
// given changes.
func newTraceStore(change func(*serve.Config)) (*serve.Store, error) {
	cfg := serve.Config{Shards: 4, Metrics: obs.NewRegistry(), Build: serve.RTreeBuilder(rtree.Config{})}
	if change != nil {
		change(&cfg)
	}
	return serve.New(cfg)
}

// storeDoors replays the three read classes through Store.Query the way the
// HTTP handlers call it.
func (t *traceRun) storeDoors(s *serve.Store, layer string) (fanSmall, fanScan float64) {
	fan := func(class string, reqs []request) float64 {
		total := 0
		t.replay(layer, class, len(reqs), func(i int) int {
			rep := s.Query(serve.Request{Op: serve.OpRange, Query: reqs[i].box, NoCache: true})
			total += rep.Plan.FanOut
			return len(rep.Items)
		})
		return float64(total) / float64(len(reqs))
	}
	fanSmall = fan(tcSmall, t.q.small)
	fanScan = fan(tcScan, t.q.scan)
	t.replay(layer, tcKNN, len(t.q.knn), func(i int) int {
		return len(s.Query(serve.Request{Op: serve.OpKNN, Point: t.q.knn[i].point, K: knnK, NoCache: true}).Items)
	})
	return fanSmall, fanScan
}

// traceStore times serve.Epoch and serve.Store, the store's variants (cached
// hit, metrics off, planner-chosen families), Apply, Bootstrap and the join.
func (t *traceRun) traceStore(items []index.Item) error {
	var s *serve.Store
	var openErr error
	t.set("serve.store.bootstrap_ms", repeatMS(3, func(int) {
		if s != nil {
			s.Close()
		}
		if s, openErr = newTraceStore(nil); openErr == nil {
			s.Bootstrap(items)
		}
	}), "ms")
	if openErr != nil {
		return openErr
	}
	defer s.Close()

	// serve.epoch: the shard fan-out without admission, planning or reply
	// materialisation.
	e := s.AcquireEpoch()
	t.replayRanges(lyEpoch, e.RangeVisit)
	buf := make([]index.Item, 0, knnK)
	t.replay(lyEpoch, tcKNN, len(t.q.knn), func(i int) int {
		buf = e.KNNInto(t.q.knn[i].point, knnK, buf[:0])
		return len(buf)
	})
	s.ReleaseEpoch(e)

	fanSmall, fanScan := t.storeDoors(s, lyStore)
	t.set("serve.epoch.fanout_small", fanSmall, "count")
	t.set("serve.epoch.fanout_scan", fanScan, "count")
	a0 := mallocs()
	for i := range t.q.small {
		s.Query(serve.Request{Op: serve.OpRange, Query: t.q.small[i].box, NoCache: true})
	}
	t.set("serve.store.allocs_small", float64(mallocs()-a0)/float64(len(t.q.small)), "count")

	// Variants run outside the span set: they are differences between whole
	// configurations, not layers of one request.
	p50 := func(st *serve.Store, reqs []request, noCache bool) float64 {
		v := make([]float64, len(reqs))
		for i := range reqs {
			start := time.Now()
			st.Query(serve.Request{Op: serve.OpRange, Query: reqs[i].box, NoCache: noCache})
			v[i] = micros(time.Since(start))
		}
		return median(v)
	}
	plain, err := newTraceStore(func(c *serve.Config) { c.Metrics = nil })
	if err != nil {
		return err
	}
	plain.Bootstrap(items)
	withMetrics := p50(s, t.q.small, true)
	t.set("serve.store.metrics_overhead_ns", (withMetrics-p50(plain, t.q.small, true))*1e3, "ns")
	plain.Close()

	nHit := len(t.q.small)
	if nHit > 2000 {
		nHit = 2000
	}
	cached, err := newTraceStore(func(c *serve.Config) { c.CacheEntries = 2 * nHit })
	if err != nil {
		return err
	}
	cached.Bootstrap(items)
	p50(cached, t.q.small[:nHit], false) // fill
	t.set("serve.store.cached_hit_ns", p50(cached, t.q.small[:nHit], false)*1e3, "ns")
	cached.Close()

	planned, err := newTraceStore(func(c *serve.Config) { c.Build, c.Planner = nil, planner.Default() })
	if err != nil {
		return err
	}
	planned.Bootstrap(items)
	// A quarter of each class is enough for a ratio of totals, and keeps the
	// traced run short when the planner's choice is slow.
	total := func(st *serve.Store) float64 {
		start := time.Now()
		for _, r := range t.q.small[:len(t.q.small)/4] {
			st.Query(serve.Request{Op: serve.OpRange, Query: r.box, NoCache: true})
		}
		for _, r := range t.q.scan[:len(t.q.scan)/4] {
			st.Query(serve.Request{Op: serve.OpRange, Query: r.box, NoCache: true})
		}
		for _, r := range t.q.knn[:len(t.q.knn)/4] {
			st.Query(serve.Request{Op: serve.OpKNN, Point: r.point, K: knnK, NoCache: true})
		}
		return time.Since(start).Seconds()
	}
	t.set("serve.store.planner_vs_rtree_ratio", total(planned)/total(s), "ratio")
	if ps := planned.Stats().Planner; ps != nil {
		fmt.Fprintf(t.out, "trace: planner chose shard families %v\n", ps.Families)
	}
	planned.Close()

	// The join runs on the still-unmodified epoch.
	var pairs, comparisons int64
	for i := 0; i < t.q.joins; i++ {
		start := time.Now()
		rep := s.SelfJoin(serve.JoinRequest{Eps: joinEps})
		t.tr.add(lyJoin, tcJoin, i, start, time.Now())
		pairs, comparisons = int64(len(rep.Pairs)), rep.Stats.Aggregate().Comparisons
		if i == 0 {
			t.counts[tcJoin] = []int{len(rep.Pairs)}
		}
		t.res.Attempted++
		if len(rep.Pairs) != t.counts[tcJoin][0] {
			t.res.fail("join %d: %d pairs, first run had %d", i, len(rep.Pairs), t.counts[tcJoin][0])
		}
	}
	t.set("join.selfjoin_ms", median(durationsUS(t.tr.spans, lyJoin, tcJoin))/1e3, "ms")
	t.set("join.pairs", float64(pairs), "count")
	t.set("join.comparisons_per_pair", float64(comparisons)/float64(max(pairs, 1)), "ratio")

	t.set("serve.store.apply_ms", repeatMS(5, func(i int) { s.Apply(toUpdates(t.q.updates[i])) }), "ms")
	return nil
}

func toUpdates(batch []index.Item) []serve.Update {
	ups := make([]serve.Update, len(batch))
	for i, it := range batch {
		ups[i] = serve.Update{ID: it.ID, Box: it.Box}
	}
	return ups
}

// httpDoors replays the read classes over loopback HTTP with one client.
func (t *traceRun) httpDoors(srv *server, layer string) (replyBytesSmall float64) {
	var buf bytes.Buffer
	get := func(path string) int {
		if _, err := fetch(http.MethodGet, srv.base+path, nil, &buf); err != nil || degraded(buf.Bytes()) {
			return -1
		}
		// The count is read without decoding the items, to keep the client's
		// own cost out of the next request.
		i := bytes.Index(buf.Bytes(), []byte(`"count":`))
		if i < 0 {
			return -1
		}
		n := 0
		for _, ch := range buf.Bytes()[i+len(`"count":`):] {
			if ch < '0' || ch > '9' {
				break
			}
			n = n*10 + int(ch-'0')
		}
		return n
	}
	bytesSmall := 0
	t.replay(layer, tcSmall, len(t.q.small), func(i int) int {
		n := get(t.q.small[i].path)
		bytesSmall += buf.Len()
		return n
	})
	t.replay(layer, tcScan, len(t.q.scan), func(i int) int { return get(t.q.scan[i].path) })
	t.replay(layer, tcKNN, len(t.q.knn), func(i int) int { return get(t.q.knn[i].path) })
	return float64(bytesSmall) / float64(len(t.q.small))
}

func (t *traceRun) traceServer(items []index.Item) error {
	w, _ := findWorkload("lookup")
	srv, err := t.h.start(w.binary, w.serverArgs(len(items))...)
	if err != nil {
		return err
	}
	defer srv.kill()
	if err := loadServer(srv, items); err != nil {
		return err
	}
	t.set("spatialserver.reply_bytes_small", t.httpDoors(srv, lyServer), "bytes")

	// ?trace=1 against plain, interleaved on the same queries.
	n := len(t.q.small)
	if n > 2000 {
		n = 2000
	}
	var buf bytes.Buffer
	plain, traced := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		d, err := fetch(http.MethodGet, srv.base+t.q.small[i].path, nil, &buf)
		if err != nil {
			return err
		}
		plain[i] = micros(d)
		if d, err = fetch(http.MethodGet, srv.base+t.q.small[i].path+"&trace=1", nil, &buf); err != nil {
			return err
		}
		traced[i] = micros(d)
	}
	t.set("spatialserver.trace_overhead_us", median(traced)-median(plain), "us")

	for i := 0; i < t.q.joins; i++ {
		start := time.Now()
		if _, err := fetch(http.MethodGet, srv.base+joinPath(), nil, &buf); err != nil {
			return err
		}
		t.tr.add(lyServer, tcJoin, i, start, time.Now())
		var rep joinReply
		t.res.Attempted++
		if err := json.Unmarshal(buf.Bytes(), &rep); err != nil || rep.Count != t.counts[tcJoin][0] {
			t.res.fail("spatialserver join %d: %d pairs (%v), store had %d", i, rep.Count, err, t.counts[tcJoin][0])
		}
	}

	var postErr error
	post := repeatMS(5, func(i int) {
		if _, err := fetch(http.MethodPost, srv.base+"/v1/update", updateBody(t.q.updates[5+i]), &buf); err != nil {
			postErr = err
		}
	})
	if postErr != nil {
		return postErr
	}
	t.set("spatialserver.update_self_ms", post-t.res.Metrics["serve.store.apply_ms"].Value, "ms")
	return nil
}

// traceCluster times cluster.Coordinator in process, wired the way
// cmd/spatialcluster wires it: three nodes, replication 2, two shards per
// node store, placement fixed by the same uniform seed points, then loaded
// by one Apply.
func (t *traceRun) traceCluster(items []index.Item) error {
	const nodes = 3
	trs := make([]cluster.Transport, nodes)
	for i := range trs {
		st, err := serve.Open(serve.Config{Shards: 2})
		if err != nil {
			return err
		}
		defer st.Close()
		trs[i] = cluster.NewNode(fmt.Sprintf("n%d", i), st)
	}
	co, err := cluster.New(cluster.Config{
		Transports: trs, Replication: 2, HedgeAfter: 20 * time.Millisecond, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		return err
	}
	defer co.Close()
	u := geom.NewAABB(geom.V(0, 0, 0), geom.V(universeSide, universeSide, universeSide))
	seedSet := datasetItems(datagen.GenerateUniform(datagen.UniformConfig{N: placementSeedItems(len(items)), Universe: u, Seed: 1}))
	if _, err := co.Bootstrap(seedSet); err != nil {
		return err
	}
	if _, err := co.Apply(toUpdates(items)); err != nil {
		return err
	}

	ctx := context.Background()
	fan := func(class string, n int, door func(i int) cluster.Reply) float64 {
		total := 0
		t.replay(lyCluster, class, n, func(i int) int {
			rep := door(i)
			if rep.Err != nil || rep.Degraded {
				return -1
			}
			total += rep.FanOut
			return len(rep.Items)
		})
		return float64(total) / float64(n)
	}
	t.set("cluster.node_queries_small", fan(tcSmall, len(t.q.small), func(i int) cluster.Reply { return co.Range(ctx, t.q.small[i].box) }), "count")
	t.set("cluster.node_queries_scan", fan(tcScan, len(t.q.scan), func(i int) cluster.Reply { return co.Range(ctx, t.q.scan[i].box) }), "count")
	t.set("cluster.node_queries_knn", fan(tcKNN, len(t.q.knn), func(i int) cluster.Reply { return co.KNN(ctx, t.q.knn[i].point, knnK) }), "count")

	var applyErr error
	t.set("cluster.apply_ms", repeatMS(5, func(i int) {
		if _, err := co.Apply(toUpdates(t.q.updates[10+i])); err != nil {
			applyErr = err
		}
	}), "ms")
	return applyErr
}

func (t *traceRun) traceClusterServer(items []index.Item) error {
	w, _ := findWorkload("cluster")
	srv, err := t.h.start(w.binary, w.serverArgs(len(items))...)
	if err != nil {
		return err
	}
	defer srv.kill()
	if err := loadServer(srv, items); err != nil {
		return err
	}
	t.httpDoors(srv, lyClusterSrv)
	return nil
}
