package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/join"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

// ErrUnavailable is the coordinator's zero-progress failure: every node that
// could have answered is down or failing, so there is no partial result to
// degrade to.
var ErrUnavailable = serve.ErrUnavailable

// worldExtent bounds the universe box the join gather scans (finite so MBR
// intersection arithmetic stays exact).
const worldExtent = 1e17

// Config configures a Coordinator.
type Config struct {
	// Transports are the cluster's nodes, in placement order.
	Transports []Transport
	// Replication is how many nodes own each tile (clamped to [1, nodes]).
	// With replication 1 a node failure degrades reads over its tile; with 2+
	// reads fail over to replicas and stay complete.
	Replication int
	// HedgeAfter fires replica queries for still-unresolved tiles when the
	// primary fan-out has not completed within this delay (0 disables
	// hedging; failover on hard errors is always on).
	HedgeAfter time.Duration
	// Workers is the goroutine budget of coordinator-side merges (the
	// cluster join); <= 0 uses GOMAXPROCS.
	Workers int
	// Metrics registers the spatial_cluster_* series on the given registry
	// (nil disables).
	Metrics *obs.Registry
}

// NodeError is the per-node failure detail of a degraded cluster Reply.
type NodeError struct {
	Node string `json:"node"`
	Err  string `json:"error"`
}

// Reply is the outcome of one coordinator read.
type Reply struct {
	// Epoch is the cluster epoch the read observed (consistent across every
	// node touched).
	Epoch uint64 `json:"epoch"`
	// Items holds range results in task-launch order — each fan-out task's
	// items together, tasks in the order they were launched; deterministic
	// for a fixed view as long as no failover or hedge fired, and in no ID
	// order — or kNN results (sorted by distance, ties by ID: the single
	// store's order, through the same index.Nearest merge). A range with
	// a positive Request.Limit keeps the first Limit of that order, exactly
	// min(Limit, matches) items on a complete reply. Every item is emitted
	// by exactly one task, so there are no duplicates to remove.
	// Items extends the request's Buf (Range and KNN lend none) or an array
	// grown from it; it never aliases a node task's buffer.
	Items []index.Item `json:"-"`
	// Pairs, JoinItems (the gathered item count), JoinCount (the
	// exact number of result pairs; Pairs holds the first JoinRequest.Limit
	// of them, all when Limit <= 0) and JoinStats hold the cluster join
	// outcome.
	Pairs     []join.Pair   `json:"-"`
	JoinItems int           `json:"-"`
	JoinCount int           `json:"-"`
	JoinStats join.RunStats `json:"-"`
	// FanOut counts fan-out tasks launched — node queries, including hedges
	// and failovers (a node asked twice, for disjoint tile sets, counts
	// twice); Hedges and Failovers break out the retries.
	FanOut    int `json:"fan_out"`
	Hedges    int `json:"hedges"`
	Failovers int `json:"failovers"`
	// Degraded marks a partial result: some tile's owners all failed, so
	// that tile's items are missing — the reply carries what the surviving
	// nodes produced (never wrong items, possibly fewer). NodeErrors holds
	// the per-node detail.
	Degraded   bool        `json:"degraded,omitempty"`
	NodeErrors []NodeError `json:"node_errors,omitempty"`
	// Err is set on zero progress: ErrUnavailable (every owner down),
	// serve.ErrDeadline / context errors (the deadline died first), or
	// ErrNotBootstrapped.
	Err error `json:"-"`
}

// viewNode is one node's slice of a cluster view.
type viewNode struct {
	Ref EpochRef
}

// View is one published cluster generation: the cluster epoch number plus a
// pinned epoch ref per node. Readers pin the view (refcount, same discipline
// as serve.Epoch) so a concurrent publish never tears a read; the superseded
// view releases its node pins when its last reader drains.
type View struct {
	Epoch uint64
	Nodes []viewNode
	// TileMBR bounds, per tile, every item any epoch up to this one routed
	// there. It only ever grows (deletes and moves do not shrink it), so a
	// query that misses it misses the tile; immutable once published.
	TileMBR []geom.AABB

	pins       atomic.Int64
	superseded atomic.Bool
	retireOnce atomic.Bool
}

// Coordinator is the scatter/gather front of a node fleet: it owns the
// placement, publishes epoch-consistent views in two phases, and merges
// node replies under the degraded-reply contract.
type Coordinator struct {
	cfg   Config
	nodes []Transport
	// place is written once (under applyMu, by the first Bootstrap) and read
	// by every concurrent scatter, hence the pointer swap.
	place atomic.Pointer[Placement]

	// applyMu serializes cluster writes (stage + publish is one critical
	// section; node stores coalesce under it as usual).
	applyMu sync.Mutex
	view    atomic.Pointer[View]
	// tileMBR is the running per-tile MBR the next view is cut from (under
	// applyMu; replaced, never written in place — views share the slices).
	tileMBR []geom.AABB

	queries     atomic.Int64
	fanouts     atomic.Int64
	hedges      atomic.Int64
	failovers   atomic.Int64
	degradedC   atomic.Int64
	swaps       atomic.Int64
	stageFails  atomic.Int64
	nodeItems   atomic.Int64
	resultItems atomic.Int64

	queryLat [3]*obs.Histogram // by query class
}

// New wires a coordinator over the given transports and publishes view 0
// (every node's current epoch, pinned). It fails if any node cannot be
// pinned — a cluster must start whole.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Transports) == 0 {
		return nil, errors.New("cluster: no transports")
	}
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	if cfg.Replication > len(cfg.Transports) {
		cfg.Replication = len(cfg.Transports)
	}
	c := &Coordinator{cfg: cfg, nodes: cfg.Transports}
	c.place.Store(&Placement{})
	v := &View{Epoch: 0, Nodes: make([]viewNode, len(c.nodes))}
	for i, tr := range c.nodes {
		ref, err := tr.Pin()
		if err != nil {
			for j := 0; j < i; j++ {
				v.Nodes[j].Ref.Release()
			}
			return nil, fmt.Errorf("cluster: pin %s: %w", tr.Name(), err)
		}
		v.Nodes[i] = viewNode{Ref: ref}
	}
	c.view.Store(v)
	c.initMetrics(cfg.Metrics)
	return c, nil
}

// Close retires the current view, releasing its node epoch pins once the
// last in-flight reader drains. Node stores are not closed — their owner
// does that after the coordinator.
func (c *Coordinator) Close() {
	c.applyMu.Lock()
	defer c.applyMu.Unlock()
	v := c.view.Load()
	v.superseded.Store(true)
	c.maybeRetireView(v)
}

// Placement returns the cluster's tile map (zero value before Bootstrap).
func (c *Coordinator) Placement() Placement { return *c.place.Load() }

// Epoch returns the current cluster epoch.
func (c *Coordinator) Epoch() uint64 { return c.view.Load().Epoch }

// acquireView pins the current view; the increment-then-recheck loop closes
// the race with a concurrent publish exactly like serve.Store.acquire.
func (c *Coordinator) acquireView() *View {
	for {
		v := c.view.Load()
		v.pins.Add(1)
		if c.view.Load() == v {
			return v
		}
		c.releaseView(v)
	}
}

func (c *Coordinator) releaseView(v *View) {
	if v.pins.Add(-1) == 0 {
		c.maybeRetireView(v)
	}
}

// maybeRetireView releases a drained, superseded view's node pins exactly
// once (the EpochRef double-release panic backs the exactly-once claim).
func (c *Coordinator) maybeRetireView(v *View) {
	if v.pins.Load() == 0 && v.superseded.Load() && v.retireOnce.CompareAndSwap(false, true) {
		for i := range v.Nodes {
			if v.Nodes[i].Ref != nil {
				v.Nodes[i].Ref.Release()
			}
		}
	}
}

// Bootstrap computes the placement from the initial dataset (first call
// only) and publishes cluster epoch 1 containing it. A dataset
// serve.ValidateBatch refuses is refused before any placement.
func (c *Coordinator) Bootstrap(items []index.Item) (uint64, error) {
	batch := make([]serve.Update, len(items))
	for i, it := range items {
		batch[i] = serve.Update{ID: it.ID, Box: it.Box}
	}
	if err := serve.ValidateBatch(batch); err != nil {
		return 0, err
	}
	c.applyMu.Lock()
	defer c.applyMu.Unlock()
	if len(c.place.Load().tiles) == 0 {
		p := NewPlacement(items, len(c.nodes), c.cfg.Replication)
		c.place.Store(&p)
		c.tileMBR = make([]geom.AABB, len(p.tiles))
		for t := range c.tileMBR {
			c.tileMBR[t] = geom.EmptyAABB()
		}
	}
	return c.applyLocked(context.Background(), batch)
}

// Apply stages one update batch on every node and publishes the next cluster
// epoch, two-phase: readers keep answering from the current view until every
// node acked its stage, and a stage failure aborts with the current view
// intact (the staged node-local epochs stay invisible to cluster reads; a
// retry re-stages the same batch idempotently).
func (c *Coordinator) Apply(batch []serve.Update) (uint64, error) {
	return c.ApplyCtx(context.Background(), batch)
}

// ApplyCtx is Apply with the caller's context threaded through to the node
// stages (tracing; staging is not cancelled midway — publish still requires
// every ack). A batch serve.ValidateBatch refuses is refused before routing,
// so no node stages it.
func (c *Coordinator) ApplyCtx(ctx context.Context, batch []serve.Update) (uint64, error) {
	if err := serve.ValidateBatch(batch); err != nil {
		return 0, err
	}
	c.applyMu.Lock()
	defer c.applyMu.Unlock()
	if len(c.place.Load().tiles) == 0 {
		return 0, ErrNotBootstrapped
	}
	return c.applyLocked(ctx, batch)
}

// applyLocked routes, stages (phase 1) and publishes (phase 2). Caller holds
// applyMu.
func (c *Coordinator) applyLocked(ctx context.Context, batch []serve.Update) (uint64, error) {
	n := len(c.nodes)
	// The tile MBRs grow on a copy, and the growth is kept even when the swap
	// aborts: a node that did stage keeps the batch and serves it from the
	// next published epoch on.
	mbrs := slices.Clone(c.tileMBR)
	per := c.routeBatch(batch, mbrs)
	c.tileMBR = mbrs
	cur := c.view.Load()
	next := cur.Epoch + 1

	// Phase 1: stage the routed sub-batches on every node in parallel. Each
	// node's local epoch advances, but cluster readers still read through
	// the current view's pinned refs — staged state is invisible until
	// publish.
	span := obs.SpanFromContext(ctx).Child("cluster_stage")
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range c.nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.nodes[i].Stage(ctx, per[i])
		}(i)
	}
	wg.Wait()
	span.End()
	for i, err := range errs {
		if err != nil {
			c.stageFails.Add(1)
			return 0, fmt.Errorf("cluster: epoch %d stage on %s failed, %w (readers stay on epoch %d): %w",
				next, c.nodes[i].Name(), serve.ErrSwapAborted, cur.Epoch, err)
		}
	}

	// Phase 2: all acked — pin every node's new epoch into a fresh view and
	// swap atomically. A pin failure (node died between ack and publish)
	// aborts the same way: the old view stays current and consistent.
	ps := obs.SpanFromContext(ctx).Child("cluster_publish")
	nv := &View{Epoch: next, Nodes: make([]viewNode, n), TileMBR: mbrs}
	for i, tr := range c.nodes {
		ref, err := tr.Pin()
		if err != nil {
			for j := 0; j < i; j++ {
				nv.Nodes[j].Ref.Release()
			}
			ps.End()
			c.stageFails.Add(1)
			return 0, fmt.Errorf("cluster: epoch %d publish pin on %s failed, %w: %w", next, tr.Name(), serve.ErrSwapAborted, err)
		}
		nv.Nodes[i] = viewNode{Ref: ref}
	}
	c.view.Store(nv)
	c.swaps.Add(1)
	cur.superseded.Store(true)
	c.maybeRetireView(cur)
	ps.End()
	return next, nil
}

// routeBatch splits a cluster batch into per-node sub-batches: an upsert
// lands on every owner of its routed tile and becomes a delete everywhere
// else (so an item that moved tiles vanishes from its old owners); a delete
// broadcasts to every node. Every node sees every batch — that is what keeps
// one cluster epoch aligned with exactly one local epoch per node. Each
// upsert also grows its tile's entry in mbrs.
func (c *Coordinator) routeBatch(batch []serve.Update, mbrs []geom.AABB) [][]serve.Update {
	n := len(c.nodes)
	place := c.place.Load()
	per := make([][]serve.Update, n)
	for i := range per {
		per[i] = make([]serve.Update, 0, len(batch))
	}
	for _, u := range batch {
		if u.Delete {
			for i := range per {
				per[i] = append(per[i], u)
			}
			continue
		}
		t := place.Route(u.Box)
		mbrs[t] = mbrs[t].Union(u.Box)
		for i := range per {
			if place.tiles[t].ownedBy(i) {
				per[i] = append(per[i], u)
			} else {
				per[i] = append(per[i], serve.Update{ID: u.ID, Delete: true})
			}
		}
	}
	return per
}

// Query classes of the latency histogram, matching serve's.
const (
	classRange = iota
	classKNN
	classJoin
)

// Query runs one OpRange, OpKNN or OpJoin read over the fleet, the one
// entry point Range, KNN and Join wrap, as serve.Store.Query is for one
// store: any other op reads as a range. Range and kNN items are appended to
// req.Buf (see Reply.Items); a range's req.Limit reaches every node task
// (see fanout), a join's world-range fan-out has none; req.Ctx bounds the
// fan-out (nil: no deadline).
func (c *Coordinator) Query(req serve.Request) Reply {
	class := classRange
	switch req.Op {
	case serve.OpKNN:
		class = classKNN
	case serve.OpJoin:
		if err := req.Join.Validate(); err != nil {
			return Reply{Err: err}
		}
		class = classJoin
	}
	ctx := req.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	c.queries.Add(1)
	defer c.observeLat(class, time.Now())
	v := c.acquireView()
	defer c.releaseView(v)
	f := c.newFanout(ctx, v)
	defer f.recycle()
	switch req.Op {
	case serve.OpKNN:
		if req.K <= 0 {
			return Reply{Epoch: v.Epoch}
		}
		f.knn, f.p, f.k = true, req.Point, req.K
	case serve.OpJoin:
		f.q = geom.NewAABB(geom.V(-worldExtent, -worldExtent, -worldExtent), geom.V(worldExtent, worldExtent, worldExtent))
		f.prio = serve.PriorityBackground
	default:
		f.q, f.limit = req.Query, req.Limit
	}
	f.run()
	rep := f.finish()
	if rep.Err != nil {
		return rep
	}
	switch req.Op {
	case serve.OpKNN:
		rep.Items = f.mergeKNN(req.Buf)
	case serve.OpJoin:
		items := f.concat(nil)
		c.resultItems.Add(int64(len(items)))
		c.join(ctx, &rep, items, req.Join)
		return rep
	default:
		rep.Items = f.concat(req.Buf)
	}
	c.resultItems.Add(int64(len(rep.Items) - len(req.Buf)))
	return rep
}

// Range scatters one range query over the tiles it can touch — a tile is
// skipped when the query misses its MBR or an owner's epoch MBR — covering
// them with the fewest nodes, each asked only for its own tiles. Items come
// back in task-launch order (see Reply.Items).
func (c *Coordinator) Range(ctx context.Context, q geom.AABB) Reply {
	return c.Query(serve.Request{Op: serve.OpRange, Ctx: ctx, Query: q})
}

// KNN asks the owner nearest the point first, resolves without a query every
// tile farther away than the k-th distance that answer proved, fans out only
// to what is left, and merges the per-node lists — each restricted to the
// tiles its task won — into the global top k. The union of the winners'
// candidates is a superset of the true answer as long as every tile was
// answered or proven too far.
func (c *Coordinator) KNN(ctx context.Context, p geom.Vec3, k int) Reply {
	return c.Query(serve.Request{Op: serve.OpKNN, Ctx: ctx, Point: p, K: k})
}

// Join runs a cluster-wide epsilon self-join: the epoch-consistent item set
// is gathered from the fleet (the range fan-out over the universe), then the
// grid join runs on the worker pool at the coordinator — cross-node pairs
// fall out naturally because the join runs over the merged set. A request
// that fails JoinRequest.Validate is refused with serve.ErrBadRequest before
// anything is fetched.
func (c *Coordinator) Join(ctx context.Context, jr serve.JoinRequest) Reply {
	return c.Query(serve.Request{Op: serve.OpJoin, Ctx: ctx, Join: jr})
}

// join plans and runs the self-join over the gathered items into rep. The
// items arrive in fan-out order, and the grid sizes its cells from their mean
// extent, a floating-point sum; sorting them by ID first keeps the cell
// sizing, and so the comparison count, the same for every arrival order of
// one epoch.
func (c *Coordinator) join(ctx context.Context, rep *Reply, items []index.Item, jr serve.JoinRequest) {
	slices.SortFunc(items, func(a, b index.Item) int { return cmp.Compare(a.ID, b.ID) })
	workers := jr.Workers
	if workers <= 0 {
		workers = c.cfg.Workers
	}
	plan := join.Planner{Workers: workers}.PlanSelf(items, join.Options{Eps: jr.Eps})
	defer plan.Close()
	js := obs.SpanFromContext(ctx).Child("cluster_join_exec")
	pairs, stats := plan.RunParallel(ctx, workers, jr.Limit)
	if js != nil {
		js.Set("algorithm", join.Algorithm)
		js.Set("pairs", int(stats.Pairs))
		js.Set("kept", len(pairs))
		js.End()
	}
	rep.Pairs = pairs
	rep.JoinItems = len(items)
	rep.JoinCount = int(stats.Pairs)
	rep.JoinStats = stats
	degraded, err := serve.Outcome{Answered: !stats.Cancelled, Progressed: len(pairs) > 0}.Resolve(ctx)
	if err != nil {
		rep.Pairs, rep.Err = nil, err
	} else if degraded && !rep.Degraded {
		rep.Degraded = true
		c.degradedC.Add(1)
	}
}

func (c *Coordinator) observeLat(class int, t0 time.Time) {
	if h := c.queryLat[class]; h != nil {
		h.Observe(time.Since(t0))
	}
}

// NodeStats is the per-node slice of a cluster Stats snapshot.
type NodeStats struct {
	Name string `json:"name"`
	Up   bool   `json:"up"`
	// Epoch is the node-local epoch pinned by the current view; Items its
	// item count.
	Epoch uint64 `json:"epoch"`
	Items int    `json:"items"`
}

// Stats is a point-in-time view of the coordinator's serving state.
type Stats struct {
	Epoch         uint64      `json:"epoch"`
	Nodes         []NodeStats `json:"nodes"`
	Tiles         int         `json:"tiles"`
	Replication   int         `json:"replication"`
	Queries       int64       `json:"queries"`
	Fanouts       int64       `json:"fanout_queries"`
	Hedges        int64       `json:"hedges"`
	Failovers     int64       `json:"failovers"`
	Degraded      int64       `json:"degraded"`
	Swaps         int64       `json:"epoch_swaps"`
	StageFailures int64       `json:"stage_failures"`
}

// Stats snapshots the coordinator counters and the current view's per-node
// state.
func (c *Coordinator) Stats() Stats {
	v := c.acquireView()
	defer c.releaseView(v)
	st := Stats{
		Epoch:         v.Epoch,
		Tiles:         len(c.place.Load().tiles),
		Replication:   c.cfg.Replication,
		Queries:       c.queries.Load(),
		Fanouts:       c.fanouts.Load(),
		Hedges:        c.hedges.Load(),
		Failovers:     c.failovers.Load(),
		Degraded:      c.degradedC.Load(),
		Swaps:         c.swaps.Load(),
		StageFailures: c.stageFails.Load(),
	}
	for i, tr := range c.nodes {
		ns := NodeStats{Name: tr.Name(), Up: true}
		if d, ok := tr.(interface{ Down() bool }); ok {
			ns.Up = !d.Down()
		}
		if ref := v.Nodes[i].Ref; ref != nil {
			ns.Epoch = ref.Seq()
			ns.Items = ref.Len()
		}
		st.Nodes = append(st.Nodes, ns)
	}
	return st
}
