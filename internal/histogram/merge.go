package histogram

import (
	"sjos/internal/pattern"
	"sjos/internal/xmltree"
)

// Multi is a collection-wide statistics view over per-member Stats: one part
// per member document, whichever shard holds it. It exposes the same
// estimation surface as *Stats (tag counts, join selectivities, predicate
// selectivities) against a union tag dictionary of its parts, so a corpus
// planner can optimize one plan against merged statistics.
//
// Because no structural relationship crosses a member document, the exact
// collection-wide join count is the SUM of the per-member join counts — not
// an estimate over an overlaid position space, where cell pairs of
// different members would contribute phantom joins. Multi therefore merges
// at the estimate level: counts and join estimates sum over parts, and
// predicate selectivities average weighted by the tag's population per part.
//
// The TagIDs Multi hands out index its own union dictionary; they are
// unrelated to any part's TagIDs.
type Multi struct {
	names  []string
	byName map[string]xmltree.TagID
	parts  []*Stats
	// local[t][p] is part p's TagID for union tag t; ok[t][p] whether the
	// tag occurs in part p at all.
	local [][]xmltree.TagID
	ok    [][]bool
}

// Merge builds the collection-wide view over the given per-member statistics.
// Union TagIDs are assigned deterministically: parts in order, and within a
// part its local TagIDs in order. Nil parts are skipped — a part that is
// momentarily unavailable contributes nothing rather than crashing the
// merge.
func Merge(parts []*Stats) *Multi {
	live := make([]*Stats, 0, len(parts))
	for _, p := range parts {
		if p != nil {
			live = append(live, p)
		}
	}
	parts = live
	m := &Multi{byName: make(map[string]xmltree.TagID), parts: parts}
	for pi, p := range parts {
		byID := make([]string, len(p.byTag))
		for name, lt := range p.tagByNm {
			byID[lt] = name
		}
		for lt, name := range byID {
			t, seen := m.byName[name]
			if !seen {
				t = xmltree.TagID(len(m.names))
				m.byName[name] = t
				m.names = append(m.names, name)
				m.local = append(m.local, make([]xmltree.TagID, len(parts)))
				m.ok = append(m.ok, make([]bool, len(parts)))
			}
			m.local[t][pi] = xmltree.TagID(lt)
			m.ok[t][pi] = true
		}
	}
	return m
}

// Lookup resolves a tag name in the union dictionary.
func (m *Multi) Lookup(name string) (xmltree.TagID, bool) {
	t, ok := m.byName[name]
	return t, ok
}

// TagCount returns the collection-wide node count for union tag t.
func (m *Multi) TagCount(t xmltree.TagID) float64 {
	if int(t) >= len(m.names) {
		return 0
	}
	total := 0.0
	for pi, p := range m.parts {
		if m.ok[t][pi] {
			total += p.TagCount(m.local[t][pi])
		}
	}
	return total
}

// EstimateJoin sums the per-member join estimates for (ta, tb, ax): joins
// never cross members, so the collection total is exactly the per-member
// sum.
func (m *Multi) EstimateJoin(ta, tb xmltree.TagID, ax pattern.Axis) float64 {
	if int(ta) >= len(m.names) || int(tb) >= len(m.names) {
		return 0
	}
	total := 0.0
	for pi, p := range m.parts {
		if m.ok[ta][pi] && m.ok[tb][pi] {
			total += p.EstimateJoin(m.local[ta][pi], m.local[tb][pi], ax)
		}
	}
	return total
}

// Selectivity is the collection-wide edge selectivity: summed join estimate
// over the collection-wide Cartesian product. Note this is deliberately NOT
// the average of per-member selectivities — the denominator spans member
// pairs that can never join, which is exactly what makes a corpus plan
// favour more selective join orders as the corpus grows.
func (m *Multi) Selectivity(ta, tb xmltree.TagID, ax pattern.Axis) float64 {
	na, nb := m.TagCount(ta), m.TagCount(tb)
	if na == 0 || nb == 0 {
		return 0
	}
	return m.EstimateJoin(ta, tb, ax) / (na * nb)
}

// PredicateSelectivity is the population-weighted average of the per-member
// predicate selectivities for union tag t.
func (m *Multi) PredicateSelectivity(t xmltree.TagID, op pattern.CmpOp, value string) float64 {
	if int(t) >= len(m.names) {
		return 0
	}
	var weighted, population float64
	for pi, p := range m.parts {
		if !m.ok[t][pi] {
			continue
		}
		lt := m.local[t][pi]
		n := p.TagCount(lt)
		weighted += n * p.PredicateSelectivity(lt, op, value)
		population += n
	}
	if population == 0 {
		return 0
	}
	return weighted / population
}
