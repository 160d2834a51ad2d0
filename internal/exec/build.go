package exec

import (
	"fmt"
	"sort"

	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/xmltree"
)

// Build compiles a physical plan tree into an operator tree ready to Open.
// The plan should have passed plan.Validate; Build still reports structural
// problems it encounters rather than mis-executing.
func Build(pat *pattern.Pattern, n *plan.Node) (Operator, error) {
	return buildWrapped(pat, n, nil)
}

// wrapFn decorates one compiled operator; the tracing layer uses it to
// interpose instrumentation around every node of the tree.
type wrapFn func(n *plan.Node, op Operator) Operator

// buildWrapped is the single plan-to-operator compiler: it builds the tree
// bottom-up and, when wrap is non-nil, wraps every operator (children
// included) with it.
func buildWrapped(pat *pattern.Pattern, n *plan.Node, wrap wrapFn) (Operator, error) {
	var op Operator
	switch n.Op {
	case plan.OpIndexScan:
		var err error
		op, err = buildLeaf(pat, n)
		if err != nil {
			return nil, err
		}
	case plan.OpSort:
		in, err := buildWrapped(pat, n.Left, wrap)
		if err != nil {
			return nil, err
		}
		op, err = NewSort(in, n.SortBy)
		if err != nil {
			return nil, err
		}
	case plan.OpStructuralJoin:
		left, err := buildWrapped(pat, n.Left, wrap)
		if err != nil {
			return nil, err
		}
		right, err := buildWrapped(pat, n.Right, wrap)
		if err != nil {
			return nil, err
		}
		var tag string
		if n.AncNode >= 0 && n.AncNode < pat.N() {
			tag = pat.Nodes[n.AncNode].Tag
		}
		op, err = NewStackTreeJoin(left, right, n.AncNode, n.DescNode, tag, n.Axis, n.Algo)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("exec: unknown plan operator %d", n.Op)
	}
	if wrap != nil {
		op = wrap(n, op)
	}
	return op, nil
}

// Run compiles and executes a plan, returning the matches in pattern-node
// order (slot i = pattern node i), so results of different plans for the
// same query are directly comparable.
func Run(ctx *Context, pat *pattern.Pattern, p *plan.Node) (MatchSet, error) {
	op, err := Build(pat, p)
	if err != nil {
		return MatchSet{}, err
	}
	return Collect(ctx, op, pat.N())
}

// SortCanonical orders normalised tuples lexicographically — a canonical
// multiset representation for comparing the results of different plans.
func SortCanonical(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// ReferenceMatches computes all matches of pat in doc by brute-force
// backtracking. It is the correctness oracle for the join operators and the
// optimizers, and is exercised directly by tests; it is exponential in the
// worst case and intended only for small verification workloads. Results
// are in pattern-node order.
func ReferenceMatches(doc *xmltree.Document, pat *pattern.Pattern) []Tuple {
	// Candidate lists per pattern node.
	cand := make([][]xmltree.NodeID, pat.N())
	for u := 0; u < pat.N(); u++ {
		tag, ok := doc.LookupTag(pat.Nodes[u].Tag)
		if !ok {
			return nil
		}
		for _, id := range doc.NodesWithTag(tag) {
			if !pat.Nodes[u].MatchesValue(doc.Value(id)) {
				continue
			}
			cand[u] = append(cand[u], id)
		}
		if len(cand[u]) == 0 {
			return nil
		}
	}
	var out []Tuple
	bind := make(Tuple, pat.N())
	var rec func(u int)
	rec = func(u int) {
		if u == pat.N() {
			out = append(out, append(Tuple(nil), bind...))
			return
		}
		for _, id := range cand[u] {
			p := pat.Parent[u]
			if p != pattern.NoNode {
				if pat.Axis[u] == pattern.Child {
					if !doc.IsParent(bind[p], id) {
						continue
					}
				} else if !doc.IsAncestor(bind[p], id) {
					continue
				}
			}
			bind[u] = id
			rec(u + 1)
		}
	}
	rec(0)
	return out
}
