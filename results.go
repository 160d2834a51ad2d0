package sjos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sjos/internal/histogram"
	"sjos/internal/pattern"
)

// This file implements the post-pattern-match operations the paper lists as
// future work (§6: "expensive operations beyond structural pattern
// matching, such as value-based joins and grouping"): value-based join
// constraints over match bindings, grouping/aggregation of matches, and
// witness rendering of results.

// ValueEq is a value-based join constraint between two pattern nodes: a
// match qualifies only if the text values of the nodes bound to L and R are
// equal. This is the equi-join the paper defers to future work, evaluated
// as a residual predicate over the structural-join result.
type ValueEq struct {
	L, R int
}

// FilterValueJoins returns the matches satisfying every value-based join
// constraint. Constraints reference pattern node indexes of the pattern the
// matches were produced for.
func (db *Database) FilterValueJoins(matches []Match, constraints []ValueEq) ([]Match, error) {
	if len(constraints) == 0 {
		return matches, nil
	}
	for _, c := range constraints {
		if c.L < 0 || c.R < 0 {
			return nil, fmt.Errorf("sjos: value join references negative node (%d,%d)", c.L, c.R)
		}
	}
	out := make([]Match, 0, len(matches))
	for _, m := range matches {
		ok := true
		for _, c := range constraints {
			if c.L >= len(m) || c.R >= len(m) {
				return nil, fmt.Errorf("sjos: value join (%d,%d) out of range for %d-node match", c.L, c.R, len(m))
			}
			if db.Value(m[c.L]) != db.Value(m[c.R]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, m)
		}
	}
	return out, nil
}

// QueryWhere runs a pattern query and applies value-based join constraints
// to the result.
func (db *Database) QueryWhere(src string, m Method, constraints []ValueEq) (*QueryResult, error) {
	res, err := db.Query(src, m)
	if err != nil {
		return nil, err
	}
	res.Matches, err = db.FilterValueJoins(res.Matches, constraints)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Group is one group of matches sharing a binding for the grouping node.
type Group struct {
	// Key is the shared document node (the grouping node's binding).
	Key NodeID
	// Matches are the group's members, in the order encountered.
	Matches []Match
}

// GroupBy partitions matches by the document node bound to pattern node u
// (TAX-style grouping on a pattern node). Groups are returned in document
// order of their keys.
func GroupBy(matches []Match, u int) []Group {
	idx := make(map[NodeID]int)
	var groups []Group
	for _, m := range matches {
		if u < 0 || u >= len(m) {
			continue
		}
		key := m[u]
		gi, ok := idx[key]
		if !ok {
			gi = len(groups)
			idx[key] = gi
			groups = append(groups, Group{Key: key})
		}
		groups[gi].Matches = append(groups[gi].Matches, m)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Key < groups[j].Key })
	return groups
}

// CountBy returns per-group match counts, keyed by the grouping node's
// binding.
func CountBy(matches []Match, u int) map[NodeID]int {
	out := make(map[NodeID]int)
	for _, m := range matches {
		if u >= 0 && u < len(m) {
			out[m[u]]++
		}
	}
	return out
}

// AggregateValues applies a fold over the text values of pattern node u
// across the matches of one group; it reports how many values parsed as
// numbers, their sum, min and max (string values that do not parse
// numerically are counted but excluded from the numeric aggregates).
type Aggregate struct {
	Count   int
	Numeric int
	Sum     float64
	Min     float64
	Max     float64
}

// AggregateNode folds the values bound to pattern node u over matches.
func (db *Database) AggregateNode(matches []Match, u int) Aggregate {
	var a Aggregate
	for _, m := range matches {
		if u < 0 || u >= len(m) {
			continue
		}
		a.Count++
		v := db.Value(m[u])
		var f float64
		if _, err := fmt.Sscanf(v, "%g", &f); err == nil {
			if a.Numeric == 0 || f < a.Min {
				a.Min = f
			}
			if a.Numeric == 0 || f > a.Max {
				a.Max = f
			}
			a.Sum += f
			a.Numeric++
		}
	}
	return a
}

// RenderMatch formats one match as a human-readable witness: each pattern
// node with its tag and bound value, nested per the pattern tree.
func (db *Database) RenderMatch(pat *Pattern, m Match) string {
	var sb strings.Builder
	var walk func(u, depth int)
	walk = func(u, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(pat.Nodes[u].Tag)
		if u < len(m) {
			if v := db.Value(m[u]); v != "" {
				fmt.Fprintf(&sb, " = %q", v)
			}
			fmt.Fprintf(&sb, "  (node %d)", m[u])
		}
		sb.WriteString("\n")
		for _, c := range pat.Children(u) {
			walk(c, depth+1)
		}
	}
	walk(0, 0)
	return sb.String()
}

// EvalPredicate exposes the library's value-predicate semantics (numeric
// comparison when both sides parse as numbers, lexicographic otherwise,
// "~" = substring containment) for callers building their own filters.
func EvalPredicate(value string, op pattern.CmpOp, rhs string) bool {
	return histogram.EvalPredicate(value, op, rhs)
}

// AppendCell appends the display form of one matched node to dst — tag="value"
// (Go-quoted, as %q prints it) when the node has text, tag#id otherwise — and
// returns the extended slice. It is the one cell format xqrun, xqshell and
// xqserve print.
func AppendCell(dst []byte, tag, value string, id NodeID) []byte {
	dst = append(dst, tag...)
	if value == "" {
		return strconv.AppendUint(append(dst, '#'), uint64(id), 10)
	}
	dst = append(dst, '=')
	for i := 0; i < len(value); i++ {
		if b := value[i]; b < ' ' || b > '~' || b == '"' || b == '\\' {
			return strconv.AppendQuote(dst, value)
		}
	}
	// Printable ASCII with nothing to escape quotes to itself.
	return append(append(append(dst, '"'), value...), '"')
}
