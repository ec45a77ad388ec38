package cluster

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

// Tile states of one fan-out. Every tile starts open; the fan-out is
// complete when none is left open.
const (
	tileOpen    uint8 = iota // still needs an answer
	tilePruned               // proven to hold nothing the query wants
	tileDone                 // a clean task answered for it
	tilePartial              // only a degraded task's items stand in for it
)

// Task states. A task stays pending until the fan-out loop receives it;
// a straggler the loop no longer waits for stays pending forever.
const (
	taskPending uint8 = iota
	taskFailed
	taskPartial
	taskClean
)

// fanTask is the unit of a fan-out: one node asked to answer for a set of
// tiles. Every item of the reply is emitted by exactly one task — the one
// that won the item's routed tile.
type fanTask struct {
	node  int
	tiles []int // ascending
	// items is what the task contributes: filled by the node-side visitor
	// (range) or taken from the node reply (kNN), then cut down to the tiles
	// the task won. It starts as the pooled buffer buf lends and extends it.
	// The task goroutine owns both until the task is received (its state
	// leaves taskPending); recycle returns buf to the pool only then, so a
	// straggler keeps its buffer.
	items []index.Item
	buf   *[]index.Item
	rep   serve.Reply
	state uint8
}

// fanout is the state of one scatter/gather over a pinned view. Range
// queries carry q (and prio); kNN queries carry p, k and the running cutoff
// bound.
type fanout struct {
	c     *Coordinator
	ctx   context.Context
	v     *View
	place *Placement
	n     int // nodes

	knn   bool
	q     geom.AABB
	prio  serve.Priority
	p     geom.Vec3
	k     int
	bound float64 // kNN: smallest k-th squared distance a node reply proved

	bounds   []geom.AABB // per node: MBR of the pinned epoch
	state    []uint8     // per tile
	open     int         // tiles in tileOpen
	inflight []int       // per tile: launched tasks not yet received
	tries    []int       // per tile: tasks launched for it
	asked    []bool      // [tile*n+node]: node was tasked with tile
	bad      []bool      // per node: failed or degraded here, not asked again
	mask     []bool      // per tile scratch, all false between uses
	score    []int       // per node scratch of launchCover: [2i] tiles, [2i+1] of them primary
	tasks    []*fanTask  // launch order
	ch       chan *fanTask
	pending  int
	span     *obs.Span

	pruned, hedges, failovers int
	nodeItems                 int // items the received tasks produced
	progressed                bool
	errs                      []NodeError
}

func (c *Coordinator) newFanout(ctx context.Context, v *View) *fanout {
	return &fanout{c: c, ctx: ctx, v: v, place: c.place.Load(), n: len(c.nodes), bound: math.Inf(1)}
}

// run drives the fan-out through the view's pinned refs until every tile is
// resolved, every candidate owner is exhausted or the context dies: tiles
// the query provably misses are pruned, the rest are covered by the fewest
// nodes, a failed or degraded task's tiles move to their next owner, and —
// with hedging enabled — tiles still open after HedgeAfter are also asked of
// another owner. It returns without waiting for stragglers; they drain in
// the background holding their own view pin.
func (f *fanout) run() {
	tiles := f.place.tiles
	if len(tiles) == 0 || len(f.v.TileMBR) != len(tiles) {
		return // the view predates the placement: nothing is published yet
	}
	f.bounds = make([]geom.AABB, f.n)
	for i := range f.bounds {
		f.bounds[i] = f.v.Nodes[i].Ref.Bounds()
	}
	f.state, f.open = make([]uint8, len(tiles)), len(tiles)
	f.inflight, f.tries = make([]int, len(tiles)), make([]int, len(tiles))
	f.asked = make([]bool, len(tiles)*f.n)
	f.bad, f.mask, f.score = make([]bool, f.n), make([]bool, len(tiles)), make([]int, 2*f.n)
	// A task takes at least one (tile, owner) pair no other task has taken,
	// so the pairs bound the sends: a straggler's send never blocks, however
	// long after run has returned it arrives.
	pairs := 0
	for t := range tiles {
		pairs += len(tiles[t].Owners)
	}
	f.ch = make(chan *fanTask, pairs)

	f.span = obs.SpanFromContext(f.ctx).Child("cluster_fanout")
	defer func() {
		if f.span != nil {
			f.span.Set("fan", len(f.tasks))
			f.span.Set("tiles_pruned", f.pruned)
			f.span.End()
		}
	}()

	f.prune()
	if f.knn {
		f.launchNearest()
	} else {
		f.launchCover(false)
	}
	var hedgeC <-chan time.Time
	if f.c.cfg.HedgeAfter > 0 && f.pending > 0 {
		tm := time.NewTimer(f.c.cfg.HedgeAfter)
		defer tm.Stop()
		hedgeC = tm.C
	}
	for f.pending > 0 {
		select {
		case t := <-f.ch:
			f.pending--
			f.settle(t)
			if f.open == 0 {
				return
			}
			f.launchCover(false)
		case <-hedgeC:
			hedgeC = nil
			f.launchCover(true)
		case <-f.ctx.Done():
			// Deadline died mid-fan-out: report what landed; stragglers fail
			// fast on the same dead context.
			f.errs = append(f.errs, NodeError{Node: "-", Err: f.ctx.Err().Error()})
			return
		}
	}
}

// misses reports whether nothing inside b can be part of the answer.
func (f *fanout) misses(b geom.AABB) bool {
	if f.knn {
		return b.IsEmpty() || b.Distance2ToPoint(f.p) > f.bound
	}
	return !f.q.Intersects(b)
}

// prune resolves, without a query, every open tile the request misses: by
// the view's conservative tile MBR, or by the epoch MBR of any owner (an
// owner holds all of the tile's items).
func (f *fanout) prune() {
	for t, tile := range f.place.tiles {
		if f.state[t] != tileOpen {
			continue
		}
		miss := f.misses(f.v.TileMBR[t])
		for _, o := range tile.Owners {
			miss = miss || f.misses(f.bounds[o])
		}
		if miss {
			f.state[t] = tilePruned
			f.open--
			f.pruned++
		}
	}
}

// launchCover assigns the tiles that need a task — open ones nobody is
// working on, or on a hedge every open one — to owners not yet asked for
// them, greedily: the node that can take the most tiles first (then the one
// that is primary for more of them, then the lower index), until no tile is
// left that anybody could take.
func (f *fanout) launchCover(hedge bool) {
	tiles := f.place.tiles
	want, left := f.mask, 0
	for t := range tiles {
		if f.state[t] == tileOpen && (hedge || f.inflight[t] == 0) {
			want[t] = true
			left++
		}
	}
	for left > 0 {
		clear(f.score)
		for t := range tiles {
			if !want[t] {
				continue
			}
			for r, o := range tiles[t].Owners {
				if f.bad[o] || f.asked[t*f.n+o] {
					continue
				}
				f.score[2*o]++
				if r == 0 {
					f.score[2*o+1]++
				}
			}
		}
		best := -1
		for o := 0; o < f.n; o++ {
			if f.score[2*o] == 0 {
				continue
			}
			if best < 0 || f.score[2*o] > f.score[2*best] ||
				(f.score[2*o] == f.score[2*best] && f.score[2*o+1] > f.score[2*best+1]) {
				best = o
			}
		}
		if best < 0 {
			break
		}
		var ts []int
		for t := range tiles {
			if want[t] && tiles[t].ownedBy(best) && !f.asked[t*f.n+best] {
				ts = append(ts, t)
				want[t] = false
				left--
			}
		}
		f.launch(best, ts, hedge)
	}
	clear(want)
}

// launchNearest opens a kNN fan-out with a single task: an owner of the tile
// nearest the point, asked for every open tile it owns. Among that tile's
// owners it takes the one whose other tiles lie farthest from the point —
// what its answer leaves open is then the likeliest to fall beyond the
// cutoff and never be asked for at all.
func (f *fanout) launchNearest() {
	tiles := f.place.tiles
	near := -1
	d2 := make([]float64, len(tiles))
	for t := range tiles {
		if f.state[t] != tileOpen {
			continue
		}
		d2[t] = f.v.TileMBR[t].Distance2ToPoint(f.p)
		if near < 0 || d2[t] < d2[near] {
			near = t
		}
	}
	if near < 0 {
		return
	}
	best, bestGap := -1, -1.0
	for _, o := range tiles[near].Owners {
		gap := math.Inf(1)
		for t := range tiles {
			if f.state[t] == tileOpen && !tiles[t].ownedBy(o) {
				gap = min(gap, d2[t])
			}
		}
		if gap > bestGap {
			best, bestGap = o, gap
		}
	}
	var ts []int
	for t := range tiles {
		if f.state[t] == tileOpen && tiles[t].ownedBy(best) {
			ts = append(ts, t)
		}
	}
	f.launch(best, ts, false)
}

// launch starts one task. The goroutine holds its own view pin: run may
// return (and the caller release its pin) before a straggler finishes.
func (f *fanout) launch(node int, ts []int, hedge bool) {
	t := &fanTask{node: node, tiles: ts, buf: index.GetItems()}
	t.items = *t.buf
	retry := false
	for _, ti := range ts {
		retry = retry || f.tries[ti] > 0
		f.tries[ti]++
		f.inflight[ti]++
		f.asked[ti*f.n+node] = true
	}
	switch {
	case hedge:
		f.hedges++
	case retry:
		f.failovers++
	}
	f.tasks = append(f.tasks, t)
	f.pending++

	ns := f.span.Child("node_query")
	if ns != nil {
		ns.Set("node", f.c.nodes[node].Name())
		ns.Set("tiles", ts)
		if hedge {
			ns.Set("hedge", true)
		} else if retry {
			ns.Set("failover", true)
		}
	}
	req := serve.Request{Ctx: f.ctx, Priority: f.prio}
	if f.knn {
		req.Op, req.Point, req.K, req.Buf = serve.OpKNN, f.p, f.k, t.items
	} else {
		req.Op, req.Query, req.Visit = serve.OpRange, f.q, f.visitor(t)
	}
	c, v, ch, ref := f.c, f.v, f.ch, f.v.Nodes[node].Ref
	v.pins.Add(1)
	go func() {
		defer c.releaseView(v)
		t.rep = ref.Query(req)
		if ns != nil {
			if t.rep.Err != nil {
				ns.Set("error", t.rep.Err.Error())
			}
			ns.End()
		}
		ch <- t
	}()
}

// visitor is the node-side half of exactly-once: it keeps an item only if
// the item's routed tile is one the task answers for, so a node never
// materialises a replica another task is responsible for. routeBatch puts an
// item on exactly the owners of its routed tile, so when every tile the node
// owns is either in the task or pruned (no match possible) the filter is the
// identity and is skipped.
func (f *fanout) visitor(t *fanTask) func(index.Item) bool {
	tiles := f.place.tiles
	whole := true
	for ti := range tiles {
		if f.state[ti] != tilePruned && tiles[ti].ownedBy(t.node) && !slices.Contains(t.tiles, ti) {
			whole = false
			break
		}
	}
	if whole {
		return func(it index.Item) bool {
			t.items = index.AppendItem(t.items, it)
			return true
		}
	}
	place, own := f.place, make([]bool, len(tiles))
	for _, ti := range t.tiles {
		own[ti] = true
	}
	return func(it index.Item) bool {
		if own[place.Route(it.Box)] {
			t.items = index.AppendItem(t.items, it)
		}
		return true
	}
}

// settle folds one received task into the fan-out. A clean task wins the
// tiles of its set that are still open and keeps only their items (another
// task — a hedge, a failover — may have resolved some first). A degraded
// task's items are correct but incomplete: they are held back until finish,
// and its tiles stay open for another owner. A kNN reply of k items also
// proves a cutoff: tiles farther than its k-th distance are pruned.
func (f *fanout) settle(t *fanTask) {
	for _, ti := range t.tiles {
		f.inflight[ti]--
	}
	name := f.c.nodes[t.node].Name()
	if t.rep.Err != nil {
		t.state = taskFailed
		f.bad[t.node] = true
		f.errs = append(f.errs, NodeError{Node: name, Err: t.rep.Err.Error()})
		return
	}
	f.progressed = true
	cutoff := false
	if f.knn {
		t.items = t.rep.Items // extends the buffer the request lent
		if len(t.items) >= f.k {
			if d := t.items[f.k-1].Box.Distance2ToPoint(f.p); d < f.bound {
				f.bound, cutoff = d, true
			}
		}
	}
	f.nodeItems += len(t.items)
	if t.rep.Degraded {
		t.state = taskPartial
		f.bad[t.node] = true
		f.errs = append(f.errs, NodeError{Node: name, Err: degradedDetail(t.rep)})
	} else {
		t.state = taskClean
		f.win(t, tileDone)
	}
	if cutoff {
		f.prune()
	}
}

// win moves the task's still-open tiles to state to and cuts the task's
// items down to those tiles. A range task's items are already restricted to
// its tile set by the visitor, so they need the cut only when the task won
// less than it was asked for; a kNN task's items are the node's unfiltered
// top k and always need it.
func (f *fanout) win(t *fanTask, to uint8) {
	won := 0
	for _, ti := range t.tiles {
		if f.state[ti] == tileOpen {
			f.state[ti] = to
			f.mask[ti] = true
			won++
			if to == tileDone {
				f.open--
			}
		}
	}
	if f.knn || won < len(t.tiles) {
		kept := t.items[:0]
		for _, it := range t.items {
			if f.mask[f.place.Route(it.Box)] {
				kept = append(kept, it)
			}
		}
		t.items = kept
	}
	for _, ti := range t.tiles {
		f.mask[ti] = false
	}
}

func degradedDetail(rep serve.Reply) string {
	if len(rep.ShardErrors) > 0 {
		return fmt.Sprintf("degraded reply (%d shard errors, first: %s)", len(rep.ShardErrors), rep.ShardErrors[0].Err)
	}
	return "degraded reply"
}

// finish closes the fan-out into a Reply (Items left to the caller's gather):
// degraded tasks stand in for the tiles no clean task answered (first
// launched first kept, so their items never overlap either), the reply
// degrades when some tile has no clean answer and fails when nothing
// contributed at all.
func (f *fanout) finish() Reply {
	for _, t := range f.tasks {
		if t.state == taskPartial {
			f.win(t, tilePartial)
		}
	}
	rep := Reply{Epoch: f.v.Epoch, FanOut: len(f.tasks), Hedges: f.hedges, Failovers: f.failovers, NodeErrors: f.errs}
	c := f.c
	c.fanouts.Add(int64(len(f.tasks)))
	c.hedges.Add(int64(f.hedges))
	c.failovers.Add(int64(f.failovers))
	c.nodeItems.Add(int64(f.nodeItems))
	switch {
	case f.open == 0:
	case f.progressed:
		rep.Degraded = true
		c.degradedC.Add(1)
	case f.ctx.Err() != nil:
		rep.Err = ctxErr(f.ctx.Err())
	default:
		rep.Err = ErrUnavailable
	}
	return rep
}

// contributions calls fn with the items of every task that contributed, in
// task-launch order.
func (f *fanout) contributions(fn func([]index.Item)) {
	for _, t := range f.tasks {
		if (t.state == taskClean || t.state == taskPartial) && len(t.items) > 0 {
			fn(t.items)
		}
	}
}

// concat is the range gather: the contributing tasks' items in task-launch
// order, appended to buf (grown once to fit). Tasks emit disjoint item sets,
// so there is nothing to deduplicate and no order to restore. It copies even
// when a single task contributed: task buffers go back to the pool.
func (f *fanout) concat(buf []index.Item) []index.Item {
	total := 0
	f.contributions(func(items []index.Item) { total += len(items) })
	buf = slices.Grow(buf, total)
	f.contributions(func(items []index.Item) { buf = append(buf, items...) })
	return buf
}

// recycle returns the buffers of the tasks the fan-out received to the item
// pool, once the gather has copied out of them. A task still pending — a
// straggler run gave up on — keeps its buffer: its goroutine may still be
// appending to it, and the collector takes it when that goroutine is done.
func (f *fanout) recycle() {
	for _, t := range f.tasks {
		if t.state == taskPending {
			continue
		}
		index.PutItems(t.buf, t.items)
	}
}

// mergeKNN is the kNN gather: a k-way merge of the contributing tasks'
// lists, each ascending by distance, into the k nearest in (distance, ID)
// order, appended to buf. Every candidate's distance is computed once; the
// lists are disjoint by tile ownership, so the merge has no duplicate to
// look for.
func (f *fanout) mergeKNN(buf []index.Item) []index.Item {
	type run struct {
		items []index.Item
		d2    []float64
	}
	var runs []run
	total := 0
	f.contributions(func(items []index.Item) {
		runs = append(runs, run{items: items})
		total += len(items)
	})
	if total == 0 {
		return buf
	}
	d2 := make([]float64, total)
	for r := range runs {
		runs[r].d2, d2 = d2[:len(runs[r].items)], d2[len(runs[r].items):]
		items, d := runs[r].items, runs[r].d2
		for i := range items {
			d[i] = items[i].Box.Distance2ToPoint(f.p)
		}
		// Nodes order equal distances arbitrarily; put them in ID order.
		for i := 0; i < len(items); {
			j := i + 1
			for j < len(items) && d[j] == d[i] {
				j++
			}
			if j-i > 1 {
				slices.SortFunc(items[i:j], func(a, b index.Item) int { return cmp.Compare(a.ID, b.ID) })
			}
			i = j
		}
	}
	out := slices.Grow(buf, min(f.k, total))
	for base := len(out); len(out)-base < f.k; {
		best := -1
		for r := range runs {
			if len(runs[r].items) == 0 {
				continue
			}
			if best < 0 || runs[r].d2[0] < runs[best].d2[0] ||
				(runs[r].d2[0] == runs[best].d2[0] && runs[r].items[0].ID < runs[best].items[0].ID) {
				best = r
			}
		}
		if best < 0 {
			break
		}
		out = append(out, runs[best].items[0])
		runs[best].items, runs[best].d2 = runs[best].items[1:], runs[best].d2[1:]
	}
	return out
}
