// Package histogram implements positional histograms for XML cardinality
// estimation, following Wu/Patel/Jagadish, "Estimating Answer Sizes for XML
// Queries" (EDBT 2002) — the estimator the paper's experiments use ("All
// estimates for the join results were made using positional histograms").
//
// For every element tag, the (Start, End) region coordinates of its nodes
// are summarised in a G×G grid over the document's position space. The
// number of ancestor-descendant pairs between two tags is then estimated
// cell-pair-wise: a pair (a, b) joins iff a.Start < b.Start and
// b.End < a.End, and within a grid cell positions are assumed uniform, so
// each cell pair contributes count_A · count_B · P(aS < bS) · P(bE < aE)
// with the uniform-overlap probabilities in closed form.
//
// The package also keeps per-tag level histograms (to scale descendant
// estimates down to parent-child estimates) and a reservoir sample of text
// values (for value-predicate selectivities).
package histogram

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"sjos/internal/pattern"
	"sjos/internal/xmltree"
)

// DefaultGrid is the default histogram resolution (grid side length).
const DefaultGrid = 48

// sampleCap bounds the per-tag value reservoir sample.
const sampleCap = 256

// cell is one non-empty grid cell.
type cell struct {
	si, ei int // start-bucket and end-bucket index
	n      float64
}

// tagStats summarises one tag's node population.
type tagStats struct {
	count  int
	cells  []cell // sorted by (si, ei)
	siIdx  []int  // siIdx[s] = first index in cells with si >= s; len grid+1
	levels map[uint16]int
	sample []string
}

// Stats holds positional histograms for one document. All methods are safe
// for concurrent use once Build returns (queries share one Stats).
type Stats struct {
	grid    int
	maxPos  float64
	byTag   []tagStats
	tagByNm map[string]xmltree.TagID

	// Join-estimate memo. Reads are lock-free (estimator construction sits
	// on the per-query planning path and re-asks the same few tag pairs);
	// misses copy-on-write under memoMu. The key set is bounded by the
	// document's tag-pair combinations. Keys are the two tags and the axis
	// packed into a uint64 so lookups take the runtime's fast integer-map
	// path instead of hashing a struct.
	memoMu sync.Mutex
	memo   atomic.Pointer[map[uint64]float64]
}

// joinKey packs (ta, tb, ax) into one map key: tb sits in the low half, ta
// above it, and the axis in the top bit.
func joinKey(ta, tb xmltree.TagID, ax pattern.Axis) uint64 {
	k := uint64(ta)<<32 | uint64(tb)
	if ax == pattern.Child {
		k |= 1 << 63
	}
	return k
}

// Build scans doc once and constructs its statistics with the given grid
// resolution. When grid <= 0 the resolution adapts to the document: √n
// clamped to [DefaultGrid, 512], so wide flat documents (whose records are
// much narrower than a coarse bucket) still estimate parent-child joins
// sensibly. The value-sample reservoir uses a fixed seed, so Build is
// deterministic.
func Build(doc *xmltree.Document, grid int) *Stats {
	if grid <= 0 {
		grid = int(math.Sqrt(float64(doc.NumNodes())))
		if grid < DefaultGrid {
			grid = DefaultGrid
		}
		if grid > 512 {
			grid = 512
		}
	}
	s := &Stats{
		grid:    grid,
		maxPos:  float64(doc.MaxPos()) + 1,
		byTag:   make([]tagStats, doc.NumTags()),
		tagByNm: make(map[string]xmltree.TagID, doc.NumTags()),
	}
	for t := 0; t < doc.NumTags(); t++ {
		s.tagByNm[doc.TagName(xmltree.TagID(t))] = xmltree.TagID(t)
	}
	dense := make([][]float64, doc.NumTags())
	rng := rand.New(rand.NewSource(0x5105))
	seen := make([]int, doc.NumTags())
	for i := 0; i < doc.NumNodes(); i++ {
		id := xmltree.NodeID(i)
		t := doc.Tag(id)
		ts := &s.byTag[t]
		ts.count++
		if ts.levels == nil {
			ts.levels = make(map[uint16]int)
		}
		ts.levels[doc.Level(id)]++
		if dense[t] == nil {
			dense[t] = make([]float64, grid*grid)
		}
		si := s.bucket(float64(doc.Start(id)))
		ei := s.bucket(float64(doc.End(id)))
		dense[t][si*grid+ei]++
		// Reservoir-sample the node's text value.
		if v := doc.Value(id); v != "" {
			seen[t]++
			if len(ts.sample) < sampleCap {
				ts.sample = append(ts.sample, v)
			} else if j := rng.Intn(seen[t]); j < sampleCap {
				ts.sample[j] = v
			}
		}
	}
	for t := range dense {
		ts := &s.byTag[t]
		if dense[t] != nil {
			for si := 0; si < grid; si++ {
				for ei := 0; ei < grid; ei++ {
					if n := dense[t][si*grid+ei]; n > 0 {
						ts.cells = append(ts.cells, cell{si: si, ei: ei, n: n})
					}
				}
			}
		}
		// Index the si-sorted cells so join estimation can restrict its
		// scan to the start-bucket range an ancestor cell can contain.
		ts.siIdx = make([]int, grid+1)
		j := 0
		for si := 0; si <= grid; si++ {
			for j < len(ts.cells) && ts.cells[j].si < si {
				j++
			}
			ts.siIdx[si] = j
		}
	}
	return s
}

func (s *Stats) bucket(p float64) int {
	b := int(p / s.maxPos * float64(s.grid))
	if b >= s.grid {
		b = s.grid - 1
	}
	return b
}

// bucketRange returns the [lo, hi) position interval of bucket b.
func (s *Stats) bucketRange(b int) (float64, float64) {
	w := s.maxPos / float64(s.grid)
	return float64(b) * w, float64(b+1) * w
}

// TagCount returns the number of nodes with tag t.
func (s *Stats) TagCount(t xmltree.TagID) float64 {
	if int(t) >= len(s.byTag) {
		return 0
	}
	return float64(s.byTag[t].count)
}

// Lookup resolves a tag name.
func (s *Stats) Lookup(name string) (xmltree.TagID, bool) {
	t, ok := s.tagByNm[name]
	return t, ok
}

// EstimateJoin estimates the number of (a, b) node pairs where a node with
// tag ta stands in the given structural relationship (as ancestor/parent)
// to a node with tag tb.
func (s *Stats) EstimateJoin(ta, tb xmltree.TagID, ax pattern.Axis) float64 {
	if int(ta) >= len(s.byTag) || int(tb) >= len(s.byTag) {
		return 0
	}
	k := joinKey(ta, tb, ax)
	if m := s.memo.Load(); m != nil {
		if v, ok := (*m)[k]; ok {
			return v
		}
	}
	desc := s.estimateDescendant(ta, tb)
	v := desc
	if ax == pattern.Child {
		v = desc * s.parentChildRatio(ta, tb)
	}
	s.memoMu.Lock()
	old := s.memo.Load()
	next := make(map[uint64]float64, 8)
	if old != nil {
		for ok, ov := range *old {
			next[ok] = ov
		}
	}
	next[k] = v
	s.memo.Store(&next)
	s.memoMu.Unlock()
	return v
}

// Selectivity estimates the edge selectivity: estimated join pairs divided
// by the size of the Cartesian product. Returns 0 when either side is
// empty.
func (s *Stats) Selectivity(ta, tb xmltree.TagID, ax pattern.Axis) float64 {
	na, nb := s.TagCount(ta), s.TagCount(tb)
	if na == 0 || nb == 0 {
		return 0
	}
	return s.EstimateJoin(ta, tb, ax) / (na * nb)
}

func (s *Stats) estimateDescendant(ta, tb xmltree.TagID) float64 {
	ca := s.byTag[ta].cells
	tbStats := &s.byTag[tb]
	total := 0.0
	for _, a := range ca {
		as0, as1 := s.bucketRange(a.si)
		ae0, ae1 := s.bucketRange(a.ei)
		// A descendant must start within a's region, so only b-cells
		// with si in [a.si, a.ei] can contribute; the si index narrows
		// the scan to exactly that range.
		hi := a.ei + 1
		if hi > s.grid {
			hi = s.grid
		}
		for i := tbStats.siIdx[a.si]; i < tbStats.siIdx[hi]; i++ {
			b := tbStats.cells[i]
			if b.ei > a.ei {
				continue // cannot end inside a
			}
			bs0, bs1 := s.bucketRange(b.si)
			be0, be1 := s.bucketRange(b.ei)
			if as0 >= bs1 || be0 >= ae1 {
				continue
			}
			p := probLess(as0, as1, bs0, bs1) * probLess(be0, be1, ae0, ae1)
			if p > 0 {
				total += a.n * b.n * p
			}
		}
	}
	if ta == tb {
		// A node never joins with itself, but the cell-pair sum counts
		// each self-pair with probability P(x<x')·P(e'<e) = 1/4 under
		// the uniform within-cell assumption. Remove that contribution.
		total -= 0.25 * float64(s.byTag[ta].count)
		if total < 0 {
			total = 0
		}
	}
	return total
}

// parentChildRatio estimates the fraction of ancestor-descendant pairs that
// are direct parent-child pairs, from the per-tag level histograms: among
// level combinations that can nest (la < lb), only la+1 == lb can be
// parent-child. Level and position are assumed independent (the standard
// uniformity assumption; exact for the regular datasets used here).
func (s *Stats) parentChildRatio(ta, tb xmltree.TagID) float64 {
	la, lb := s.byTag[ta].levels, s.byTag[tb].levels
	if len(la) == 0 || len(lb) == 0 {
		return 0
	}
	var nested, direct float64
	for al, an := range la {
		for bl, bn := range lb {
			if bl > al {
				w := float64(an) * float64(bn)
				nested += w
				if bl == al+1 {
					direct += w
				}
			}
		}
	}
	if nested == 0 {
		return 0
	}
	return direct / nested
}

// probLess returns P(X < Y) for independent X ~ U[a,b), Y ~ U[c,d).
func probLess(a, b, c, d float64) float64 {
	if b <= c {
		return 1
	}
	if d <= a {
		return 0
	}
	// P(X < Y) = E_Y[ F_X(Y) ] with F_X the clamped linear CDF of X.
	// Integrate F_X over [c,d) piecewise at the knots a and b.
	integral := 0.0
	// Segment of [c,d) below a contributes 0.
	lo := maxf(c, a)
	hi := minf(d, b)
	if hi > lo {
		// Linear part: ∫ (y-a)/(b-a) dy over [lo,hi).
		integral += ((hi-a)*(hi-a) - (lo-a)*(lo-a)) / (2 * (b - a))
	}
	if d > b {
		// Part of [c,d) above b contributes 1 each.
		integral += d - maxf(c, b)
	}
	return integral / (d - c)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// PredicateSelectivity estimates the fraction of tag-t nodes whose text
// value satisfies (op, value), from the reservoir sample. Numeric
// comparison is used when both sides parse as numbers, lexicographic
// otherwise. A floor of 1/count keeps estimates non-zero for equality on
// values absent from the sample.
func (s *Stats) PredicateSelectivity(t xmltree.TagID, op pattern.CmpOp, value string) float64 {
	if op == pattern.CmpNone {
		return 1
	}
	if int(t) >= len(s.byTag) || s.byTag[t].count == 0 {
		return 0
	}
	ts := &s.byTag[t]
	if len(ts.sample) == 0 {
		return 1 / float64(ts.count)
	}
	pred := pattern.CompilePredicate(op, value)
	match := 0
	for _, v := range ts.sample {
		if pred.Match(v) {
			match++
		}
	}
	sel := float64(match) / float64(len(ts.sample))
	if floor := 1 / float64(ts.count); sel < floor {
		sel = floor
	}
	return sel
}

// sortedLevels returns a tag's populated levels in ascending order; used by
// tests and debug tooling.
func (s *Stats) sortedLevels(t xmltree.TagID) []uint16 {
	var out []uint16
	for l := range s.byTag[t].levels {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
