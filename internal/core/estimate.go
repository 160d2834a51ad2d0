package core

import (
	"fmt"
	"math/bits"

	"sjos/internal/pattern"
	"sjos/internal/xmltree"
)

// Estimator supplies the cardinality estimates the cost model needs:
// per-pattern-node candidate counts and per-edge join selectivities, chained
// into sub-pattern (cluster) cardinalities under the usual independence
// assumption:
//
//	|C| = Π_{i ∈ C} |cand(i)| · Π_{(u,v) ⊆ C} sel(u,v)
//
// Per-edge selectivities come from positional histograms (internal/
// histogram), exactly as in the paper's experimental setup.
type Estimator struct {
	pat      *pattern.Pattern
	nodeCard []float64 // per pattern node, after value-predicate selectivity
	scanCard []float64 // per pattern node, before predicate (full tag scan)
	probe    []bool    // per pattern node: value-index probe available
	edgeSel  []float64 // per edge id (1..n-1); [0] unused
}

// ProbeEligibility answers whether a value predicate on a tag can be
// served by a content-index probe with scan+filter semantics. It is
// implemented by *storage.Store; declared here so core does not depend on
// the storage package.
type ProbeEligibility interface {
	ProbeEligible(tag string, op pattern.CmpOp, value string) bool
}

// ProbeSelectivity optionally refines ProbeEligibility with the exact
// probe result count. Stores implement it, making the indexed leaf's
// cardinality estimate exact.
type ProbeSelectivity interface {
	ProbeSelectivity(tag string, op pattern.CmpOp, value string) (int, bool)
}

// StatsSource is the statistics surface the estimator consumes: tag
// resolution, tag population counts, value-predicate selectivities and
// per-edge join selectivities. *histogram.Stats implements it for a single
// document; *histogram.Multi implements it corpus-wide over per-shard
// statistics. Declared here so core stays independent of how statistics are
// aggregated.
type StatsSource interface {
	Lookup(name string) (xmltree.TagID, bool)
	TagCount(t xmltree.TagID) float64
	PredicateSelectivity(t xmltree.TagID, op pattern.CmpOp, value string) float64
	Selectivity(ta, tb xmltree.TagID, ax pattern.Axis) float64
}

// NewEstimator derives an estimator for pat from document (or corpus)
// statistics, every leaf on the scan+filter path.
func NewEstimator(pat *pattern.Pattern, stats StatsSource) (*Estimator, error) {
	return NewIndexedEstimator(pat, stats, nil)
}

// NewIndexedEstimator is NewEstimator with the value-index probes pe offers
// (see EnableValueIndex), in one pass: its estimates are those of
// NewEstimator followed by EnableValueIndex(pe), bit for bit, but the
// statistics' value sample is read only for predicated nodes that get no
// exact probe count. A nil pe is NewEstimator.
func NewIndexedEstimator(pat *pattern.Pattern, stats StatsSource, pe ProbeEligibility) (*Estimator, error) {
	if err := pat.Validate(); err != nil {
		return nil, err
	}
	if pat.N() > MaxPatternNodes {
		return nil, fmt.Errorf("core: pattern has %d nodes, maximum is %d", pat.N(), MaxPatternNodes)
	}
	n := pat.N()
	cards := make([]float64, 3*n)
	e := &Estimator{
		pat:      pat,
		nodeCard: cards[:n:n],
		scanCard: cards[n : 2*n : 2*n],
		probe:    make([]bool, n),
		edgeSel:  cards[2*n:],
	}
	// Each tag name is resolved once: patterns repeat names (self-joins,
	// shared leaf tags), so a node reuses an earlier node's resolution, and
	// the edge loop reuses the nodes'.
	var tags [MaxPatternNodes]xmltree.TagID
	var known [MaxPatternNodes]bool
	for u := 0; u < n; u++ {
		nd := pat.Nodes[u]
		probe, count, exact := e.probeCount(pe, u)
		e.probe[u] = probe
		if exact {
			e.nodeCard[u] = float64(count)
		}
		tag, ok, seen := xmltree.TagID(0), false, false
		for w := 0; w < u; w++ {
			if pat.Nodes[w].Tag == nd.Tag {
				tag, ok, seen = tags[w], known[w], true
				break
			}
		}
		if !seen {
			tag, ok = stats.Lookup(nd.Tag)
		}
		if !ok {
			continue // absent tag: zero scan, provably-empty leaf
		}
		tags[u], known[u] = tag, true
		card := stats.TagCount(tag)
		e.scanCard[u] = card
		if exact {
			continue
		}
		if nd.Op != pattern.CmpNone {
			card *= stats.PredicateSelectivity(tag, nd.Op, nd.Value)
		}
		e.nodeCard[u] = card
	}
	for v := 1; v < n; v++ {
		if u := pat.Parent[v]; known[u] && known[v] {
			e.edgeSel[v] = stats.Selectivity(tags[u], tags[v], pat.Axis[v])
		}
	}
	return e, nil
}

// NewManualEstimator builds an estimator from explicit statistics: nodeCard
// per pattern node and edgeSel per edge id (index 0 ignored). It backs unit
// tests and what-if experiments where exact control of cardinalities is
// needed.
func NewManualEstimator(pat *pattern.Pattern, nodeCard, edgeSel []float64) (*Estimator, error) {
	if err := pat.Validate(); err != nil {
		return nil, err
	}
	if pat.N() > MaxPatternNodes {
		return nil, fmt.Errorf("core: pattern has %d nodes, maximum is %d", pat.N(), MaxPatternNodes)
	}
	if len(nodeCard) != pat.N() || len(edgeSel) != pat.N() {
		return nil, fmt.Errorf("core: statistics lengths %d/%d, want %d", len(nodeCard), len(edgeSel), pat.N())
	}
	return &Estimator{
		pat:      pat,
		nodeCard: append([]float64(nil), nodeCard...),
		scanCard: append([]float64(nil), nodeCard...),
		probe:    make([]bool, pat.N()),
		edgeSel:  append([]float64(nil), edgeSel...),
	}, nil
}

// EnableValueIndex marks pattern nodes whose value predicate the given
// store can serve by an index probe; the planner then weighs a probe of
// NodeCard(u) postings against a scan of ScanCard(u) postings for those
// leaves. When pe also implements ProbeSelectivity, the indexed leaf's
// cardinality estimate is replaced by the exact probe result count (the
// index knows precisely how many postings it will return). Not calling
// this — or passing nil — leaves every leaf on the scan+filter path. The
// planner's estimators come from NewIndexedEstimator, which does the same
// without estimating the overwritten cardinalities first.
func (e *Estimator) EnableValueIndex(pe ProbeEligibility) {
	for u := 0; u < e.pat.N(); u++ {
		if probe, count, exact := e.probeCount(pe, u); probe {
			e.probe[u] = true
			if exact {
				e.nodeCard[u] = float64(count)
			}
		}
	}
}

// probeCount is the one value-index question per pattern node: whether pe
// can serve node u's predicate by a probe and, when pe also implements
// ProbeSelectivity, the probe's exact result count (exact).
func (e *Estimator) probeCount(pe ProbeEligibility, u int) (probe bool, count int, exact bool) {
	nd := e.pat.Nodes[u]
	if pe == nil || nd.Op == pattern.CmpNone || !pe.ProbeEligible(nd.Tag, nd.Op, nd.Value) {
		return false, 0, false
	}
	if ps, ok := pe.(ProbeSelectivity); ok {
		count, exact = ps.ProbeSelectivity(nd.Tag, nd.Op, nd.Value)
	}
	return true, count, exact
}

// NodeCard returns the estimated candidate count for pattern node u.
func (e *Estimator) NodeCard(u int) float64 { return e.nodeCard[u] }

// ScanCard returns the estimated full tag-scan size for pattern node u —
// what an unindexed leaf must read before filtering. For nodes without a
// predicate it equals NodeCard.
func (e *Estimator) ScanCard(u int) float64 { return e.scanCard[u] }

// ProbeOK reports whether pattern node u's predicate can be served by a
// value-index probe (see NewIndexedEstimator).
func (e *Estimator) ProbeOK(u int) bool { return e.probe[u] }

// EdgeSelectivity returns the estimated selectivity of edge v.
func (e *Estimator) EdgeSelectivity(v int) float64 { return e.edgeSel[v] }

// ClusterCard estimates the cardinality of the joined sub-pattern whose
// node set is given as a bitmask. The mask must induce a connected
// sub-pattern (as all status clusters do); the estimate multiplies node
// candidate counts with the selectivities of all pattern edges internal to
// the mask, in increasing node order — the product's rounding, and with it
// every plan cost, depends on that order. The searches call it once per
// cluster of an edge mask (see space.record), so it is not memoised.
func (e *Estimator) ClusterCard(mask uint64) float64 {
	card := 1.0
	for m := mask; m != 0; m &= m - 1 {
		u := bits.TrailingZeros64(m)
		card *= e.nodeCard[u]
		if u > 0 && mask&(1<<uint(e.pat.Parent[u])) != 0 {
			card *= e.edgeSel[u]
		}
	}
	return card
}

// MaxPatternNodes bounds the pattern size the optimizers accept; it keeps
// the status encodings within machine words. Patterns in XML workloads are
// far smaller.
const MaxPatternNodes = 30

// popcount is a readability alias used across the search code.
func popcount(m uint32) int { return bits.OnesCount32(m) }
