// Package join is the served in-memory spatial join: a PBSM-style
// uniform-grid partition join (Sections 3.2 and 4.3 of the paper), prepared
// as a Plan of independent cell tasks that run sequentially or on a worker
// pool, plus the nested loop as the reference oracle tests compare against.
//
// The paper surveys several join algorithms and says which one wins depends
// on the inputs. Measured through the store, the grid won or tied on every
// input where another algorithm used to be picked, so the grid is the only
// one served. The plane sweep, the synchronized R-Tree traversal and the
// TOUCH-style join are in package join/survey, which the reproduction's
// join comparison (experiment E6) runs and the serving binaries do not link.
//
// Every join computes an epsilon distance join over bounding boxes: a pair
// (a, b) is reported when the boxes are within Eps of each other (Eps = 0
// yields the intersection join). A user-supplied refinement predicate can be
// applied to the exact geometry, which is how the neuroscience synapse
// detection use case (cylinders within a threshold distance) is expressed.
//
// Every join charges pairwise candidate comparisons to the provided
// counters, because the number of comparisons is, as the paper notes, "the
// major bulk of work for in-memory spatial joins".
package join

import (
	"cmp"
	"math"
	"slices"

	"spatialsim/internal/index"
	"spatialsim/internal/instrument"
)

// Pair is one join result: the ids of the two matching elements. For
// self-joins A < B always holds.
type Pair struct {
	A, B int64
}

// Options configures a join run.
type Options struct {
	// Eps is the distance threshold between boxes; 0 means boxes must
	// intersect.
	Eps float64
	// Refine, if non-nil, is applied to candidate pairs that pass the box
	// filter; only pairs for which it returns true are reported.
	Refine func(a, b index.Item) bool
	// Counters, if non-nil, receives comparison counts.
	Counters *instrument.Counters
}

// Match charges one comparison and reports whether the pair joins: the box
// test, then Refine. The nested loop and the survey joins compare through it.
func (o Options) Match(a, b index.Item) bool {
	if o.Counters != nil {
		o.Counters.AddComparisons(1)
	}
	return o.within(&a, &b)
}

// within is Match without the comparison charge, for loops that count their
// comparisons and charge them once. The box test is a.Box.Distance2(b.Box) <=
// Eps², summed in the same axis order but stopping at the first axis that
// takes the partial sum past Eps².
func (o *Options) within(a, b *index.Item) bool {
	eps2 := o.Eps * o.Eps
	d2 := gap2(a.Box.Min.X, a.Box.Max.X, b.Box.Min.X, b.Box.Max.X)
	if d2 > eps2 {
		return false
	}
	if d2 += gap2(a.Box.Min.Y, a.Box.Max.Y, b.Box.Min.Y, b.Box.Max.Y); d2 > eps2 {
		return false
	}
	if d2 += gap2(a.Box.Min.Z, a.Box.Max.Z, b.Box.Min.Z, b.Box.Max.Z); d2 > eps2 {
		return false
	}
	if o.Refine != nil {
		if o.Counters != nil {
			o.Counters.AddElemIntersectTests(1)
		}
		return o.Refine(*a, *b)
	}
	return true
}

// gap2 is the squared gap between intervals [lo1, hi1] and [lo2, hi2] (0 when
// they overlap) — one axis of geom.AABB.Distance2. The conversion rounds the
// square, so a caller's sum of squares is never fused into one operation.
func gap2(lo1, hi1, lo2, hi2 float64) float64 {
	switch {
	case hi1 < lo2:
		d := lo2 - hi1
		return float64(d * d)
	case hi2 < lo1:
		d := lo1 - hi2
		return float64(d * d)
	}
	return 0
}

// NestedLoop is the quadratic baseline join between two sets.
func NestedLoop(as, bs []index.Item, opts Options) []Pair {
	var out []Pair
	for _, a := range as {
		for _, b := range bs {
			if opts.Match(a, b) {
				out = append(out, Pair{A: a.ID, B: b.ID})
			}
		}
	}
	return out
}

// SelfNestedLoop is the quadratic baseline self-join; each unordered pair is
// tested once and reported with A < B.
func SelfNestedLoop(items []index.Item, opts Options) []Pair {
	var out []Pair
	for i := range items {
		for j := i + 1; j < len(items); j++ {
			if opts.Match(items[i], items[j]) {
				out = append(out, orderPair(items[i].ID, items[j].ID))
			}
		}
	}
	return out
}

func orderPair(a, b int64) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// comparePairs is the canonical (A, then B) pair order.
func comparePairs(a, b Pair) int {
	if a.A != b.A {
		return cmp.Compare(a.A, b.A)
	}
	return cmp.Compare(a.B, b.B)
}

// SortPairs sorts a pair list in place into canonical (A, then B) order.
func SortPairs(pairs []Pair) { slices.SortFunc(pairs, comparePairs) }

// DedupPairs sorts and deduplicates a pair list in place and returns it —
// entirely allocation-free (no hash table): canonical sort, then one
// compaction pass.
func DedupPairs(pairs []Pair) []Pair {
	SortPairs(pairs)
	return slices.Compact(pairs)
}

// Gather concatenates pair runs into out (reusing its capacity) in canonical
// (A, then B) order and returns it — the gather step of every join. The runs
// must be disjoint, as plan tasks' outputs are, so it neither merges nor
// dedups: a distribution sort scatters the pairs into buckets of consecutive
// A values (about one bucket per pair, counted then prefix-summed), and each
// small bucket is sorted in place.
func Gather(runs [][]Pair, out []Pair) []Pair {
	total := 0
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, run := range runs {
		total += len(run)
		for _, p := range run {
			lo, hi = min(lo, p.A), max(hi, p.A)
		}
	}
	out = resize(out, total)
	if total == 0 {
		return out
	}
	// bucket(A) = (A-lo)>>shift, the shift making the bucket count at most
	// the pair count. The unsigned difference cannot overflow.
	shift := 0
	for (uint64(hi)-uint64(lo))>>shift >= uint64(total) {
		shift++
	}
	nb := int((uint64(hi)-uint64(lo))>>shift) + 1
	start := make([]int32, nb+1)
	for _, run := range runs {
		for _, p := range run {
			start[(uint64(p.A)-uint64(lo))>>shift+1]++
		}
	}
	for b := 1; b <= nb; b++ {
		start[b] += start[b-1]
	}
	// start[b] is bucket b's write cursor; afterwards it has advanced to the
	// end of bucket b.
	for _, run := range runs {
		for _, p := range run {
			b := (uint64(p.A) - uint64(lo)) >> shift
			out[start[b]] = p
			start[b]++
		}
	}
	begin := int32(0)
	for _, end := range start[:nb] {
		sortSmall(out[begin:end])
		begin = end
	}
	return out
}

// sortSmall sorts a (typically tiny) bucket into canonical order: insertion
// sort up to a dozen pairs, the library sort beyond.
func sortSmall(s []Pair) {
	if len(s) > 12 {
		SortPairs(s)
		return
	}
	for i := 1; i < len(s); i++ {
		p := s[i]
		j := i
		for ; j > 0 && comparePairs(p, s[j-1]) < 0; j-- {
			s[j] = s[j-1]
		}
		s[j] = p
	}
}
