// Package survey holds the in-memory spatial join algorithms the paper
// surveys beside the grid join (Sections 3.2, 3.3 and 4.3): the plane-sweep
// join, a synchronized R-Tree traversal join, and a TOUCH-style join based on
// hierarchical data-oriented partitioning.
//
// The served join is the grid alone (package join): measured through the
// store's self-join, each of these was slower than the grid, or tied it, on
// every input where a planner used to pick it. They stay for the
// reproduction's join comparison (experiment E6) and the differential tests,
// as plain sequential functions, and the serving binaries do not link them.
//
// Every join returns its pairs in canonical (A, then B) order and charges its
// pairwise candidate comparisons through join.Options.Match, so comparison
// counts are directly comparable with the grid's.
package survey

import (
	"sort"

	"spatialsim/internal/index"
	"spatialsim/internal/join"
)

// canonical sorts a join's pairs, each emitted once, into canonical order.
func canonical(out []join.Pair) []join.Pair {
	return join.Gather([][]join.Pair{out}, nil)
}

// sortedByMinX returns a copy of items sorted by Box.Min.X.
func sortedByMinX(items []index.Item) []index.Item {
	s := append([]index.Item(nil), items...)
	sort.Slice(s, func(i, j int) bool {
		return s[i].Box.Min.X < s[j].Box.Min.X
	})
	return s
}

// PlaneSweep joins two sets by sweeping a plane along the X axis: both sets
// are sorted by Box.Min.X and only elements whose X extents (expanded by Eps)
// overlap are compared. As the paper observes, the sweep does not ensure that
// only spatially close objects are compared — elements far apart in Y or Z
// but overlapping in X still generate comparisons.
//
// The candidate pairs are split exactly in two, so none is reported twice:
// pairs where b starts at or after a (each a scans forward in B) and pairs
// where b starts strictly before a (each b scans forward in A).
func PlaneSweep(as, bs []index.Item, opts join.Options) []join.Pair {
	if len(as) == 0 || len(bs) == 0 {
		return nil
	}
	sa, sb := sortedByMinX(as), sortedByMinX(bs)
	var out []join.Pair
	for _, a := range sa {
		k := sort.Search(len(sb), func(k int) bool { return sb[k].Box.Min.X >= a.Box.Min.X })
		for maxX := a.Box.Max.X + opts.Eps; k < len(sb) && sb[k].Box.Min.X <= maxX; k++ {
			if opts.Match(a, sb[k]) {
				out = append(out, join.Pair{A: a.ID, B: sb[k].ID})
			}
		}
	}
	for _, b := range sb {
		k := sort.Search(len(sa), func(k int) bool { return sa[k].Box.Min.X > b.Box.Min.X })
		for maxX := b.Box.Max.X + opts.Eps; k < len(sa) && sa[k].Box.Min.X <= maxX; k++ {
			if opts.Match(sa[k], b) {
				out = append(out, join.Pair{A: sa[k].ID, B: b.ID})
			}
		}
	}
	return canonical(out)
}

// SelfPlaneSweep is the plane-sweep self-join: the classic single-list sweep,
// scanning forward from each element. Pairs are reported once with A < B.
func SelfPlaneSweep(items []index.Item, opts join.Options) []join.Pair {
	if len(items) < 2 {
		return nil
	}
	a := sortedByMinX(items)
	var out []join.Pair
	for i := range a {
		maxX := a[i].Box.Max.X + opts.Eps
		for j := i + 1; j < len(a) && a[j].Box.Min.X <= maxX; j++ {
			if opts.Match(a[i], a[j]) {
				out = append(out, join.Pair{A: min(a[i].ID, a[j].ID), B: max(a[i].ID, a[j].ID)})
			}
		}
	}
	return canonical(out)
}

// treeJoin is one synchronized traversal over two flattened hierarchies.
type treeJoin struct {
	ha, hb *flatHierarchy
	self   bool
	opts   join.Options
	out    []join.Pair
}

// RTreeJoin performs a synchronized traversal join over the flattened
// hierarchies: node pairs whose boxes are within Eps are expanded
// recursively and only leaf pairs generate element comparisons. This is the
// classic index-based spatial join the paper's survey references, run on the
// cache-conscious slab layout.
func RTreeJoin(as, bs []index.Item, opts join.Options) []join.Pair {
	if len(as) == 0 || len(bs) == 0 {
		return nil
	}
	j := treeJoin{ha: buildFlatHierarchy(as), hb: buildFlatHierarchy(bs), opts: opts}
	j.descend(0, 0)
	return canonical(j.out)
}

// SelfRTreeJoin joins a set with itself by synchronized traversal. The full
// items x items traversal visits both orientations of every pair, and only
// the one with A < B is compared and emitted, so each unordered pair is
// reported once — with no dedup pass.
func SelfRTreeJoin(items []index.Item, opts join.Options) []join.Pair {
	if len(items) < 2 {
		return nil
	}
	h := buildFlatHierarchy(items)
	j := treeJoin{ha: h, hb: h, self: true, opts: opts}
	j.descend(0, 0)
	return canonical(j.out)
}

// descend is the synchronized traversal from one node pair, identical to the
// classic R-Tree join.
func (j *treeJoin) descend(ai, bi int32) {
	opts := &j.opts
	if opts.Counters != nil {
		opts.Counters.AddTreeIntersectTests(1)
	}
	a := &j.ha.nodes[ai]
	b := &j.hb.nodes[bi]
	if a.box.Distance2(b.box) > opts.Eps*opts.Eps {
		return
	}
	switch {
	case a.leaf && b.leaf:
		for i := a.first; i < a.first+a.count; i++ {
			ia := j.ha.item(i)
			for k := b.first; k < b.first+b.count; k++ {
				ib := j.hb.item(k)
				if j.self && ia.ID >= ib.ID {
					continue
				}
				if opts.Match(ia, ib) {
					j.out = append(j.out, join.Pair{A: ia.ID, B: ib.ID})
				}
			}
		}
	case a.leaf:
		for k := b.first; k < b.first+b.count; k++ {
			j.descend(ai, k)
		}
	case b.leaf:
		for i := a.first; i < a.first+a.count; i++ {
			j.descend(i, bi)
		}
	default:
		for i := a.first; i < a.first+a.count; i++ {
			for k := b.first; k < b.first+b.count; k++ {
				j.descend(i, k)
			}
		}
	}
}

// touchJoin is one TOUCH run: a hierarchy over the build side, probed by
// every element of the probe side.
type touchJoin struct {
	h    *flatHierarchy
	self bool
	// swap records that the build side is the binary join's second input,
	// so emission restores the (as, bs) orientation.
	swap bool
	opts join.Options
	out  []join.Pair
}

// TOUCHJoin is an in-memory join in the spirit of TOUCH (Nobari et al.,
// SIGMOD 2013), the hierarchical data-oriented partitioning join the paper's
// authors designed: a hierarchy is built over the smaller input; every
// element of the other input descends to the lowest hierarchy node whose box
// (expanded by Eps) could hold all its join partners and is compared only
// against the build elements in that node's subtree, pruned by child boxes.
// Pairs keep the (as, bs) orientation whichever side the hierarchy is built
// over.
func TOUCHJoin(as, bs []index.Item, opts join.Options) []join.Pair {
	if len(as) == 0 || len(bs) == 0 {
		return nil
	}
	build, probe, swap := as, bs, false
	if len(bs) < len(as) {
		build, probe, swap = bs, as, true
	}
	j := touchJoin{h: buildFlatHierarchy(build), swap: swap, opts: opts}
	return j.run(probe)
}

// SelfTOUCHJoin joins a set with itself using TOUCH; each unordered pair is
// visited once per orientation and reported once, with A < B.
func SelfTOUCHJoin(items []index.Item, opts join.Options) []join.Pair {
	if len(items) < 2 {
		return nil
	}
	j := touchJoin{h: buildFlatHierarchy(items), self: true, opts: opts}
	return j.run(items)
}

// run fuses TOUCH's assignment and probe phases per probe element: each
// probe descends the build hierarchy to the lowest node that could hold all
// its partners, then joins against that node's subtree.
func (j *touchJoin) run(probe []index.Item) []join.Pair {
	for _, b := range probe {
		j.probeSubtree(j.node(b), b)
	}
	return canonical(j.out)
}

// node pushes b down the hierarchy as long as exactly one child can contain
// join partners for it (the TOUCH assignment invariant).
func (j *touchJoin) node(b index.Item) int32 {
	expanded := b.Box.Expand(j.opts.Eps)
	cur := int32(0)
	for {
		n := &j.h.nodes[cur]
		if n.leaf {
			return cur
		}
		var next int32
		matches := 0
		for c := n.first; c < n.first+n.count; c++ {
			if j.h.nodes[c].box.Intersects(expanded) {
				matches++
				next = c
				if matches > 1 {
					break
				}
			}
		}
		if matches != 1 {
			return cur
		}
		cur = next
	}
}

// probeSubtree compares b against every build element in the subtree rooted
// at ni, pruning subtrees farther than Eps.
func (j *touchJoin) probeSubtree(ni int32, b index.Item) {
	opts := &j.opts
	if opts.Counters != nil {
		opts.Counters.AddTreeIntersectTests(1)
	}
	n := &j.h.nodes[ni]
	if n.box.Distance2(b.Box) > opts.Eps*opts.Eps {
		return
	}
	if !n.leaf {
		for c := n.first; c < n.first+n.count; c++ {
			j.probeSubtree(c, b)
		}
		return
	}
	for i := n.first; i < n.first+n.count; i++ {
		a := j.h.item(i)
		if j.self && a.ID >= b.ID {
			continue
		}
		if j.swap {
			// The build side is bs: restore the (as, bs) orientation for both
			// the refinement predicate and the emitted pair.
			if opts.Match(b, a) {
				j.out = append(j.out, join.Pair{A: b.ID, B: a.ID})
			}
		} else if opts.Match(a, b) {
			j.out = append(j.out, join.Pair{A: a.ID, B: b.ID})
		}
	}
}
