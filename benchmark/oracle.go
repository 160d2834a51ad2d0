package main

import (
	"sjos"
	"sjos/internal/pattern"
	"sjos/internal/xmltree"
)

// rootCounts counts the matches of pat in doc without enumerating them, per
// binding of the pattern's root: for pattern node u and document node v, the
// embeddings of u's subtree rooted at v number [v satisfies u] × Π over u's
// children c of (the sum of c's counts over v's children or descendants, by
// c's axis). One pass per pattern node, so O(|pat|·|doc|) where
// exec.ReferenceMatches is output-bound — that one needs 9 s for the 1.04 M
// matches of Q.Pers.3.d. It shares no code with the engine (document
// accessors and the predicate evaluator only) and oracle_test.go holds it
// equal to exec.ReferenceMatches.
func rootCounts(doc *xmltree.Document, pat *pattern.Pattern) []uint64 {
	n := doc.NumNodes()
	// below[u][v]: what u's subtree contributes to a parent match at v.
	below := make([][]uint64, pat.N())
	// Children carry higher indexes than their parents (pattern.Validate),
	// so descending order finishes every child before its parent.
	for u := pat.N() - 1; ; u-- {
		cnt := make([]uint64, n)
		if t, ok := doc.LookupTag(pat.Nodes[u].Tag); ok {
			for _, v := range doc.NodesWithTag(t) {
				if pat.Nodes[u].MatchesValue(doc.Value(v)) {
					cnt[v] = 1
				}
			}
		}
		for _, c := range pat.Children(u) {
			for v := range cnt {
				cnt[v] *= below[c][v]
			}
			below[c] = nil
		}
		if u == 0 {
			return cnt
		}
		// Node IDs are in document order, so a descending sweep completes a
		// node's own sum before adding it to its parent's.
		sum := make([]uint64, n)
		for w := n - 1; w >= 1; w-- {
			p := doc.Parent(xmltree.NodeID(w))
			sum[p] += cnt[w]
			if pat.Axis[u] == pattern.Descendant {
				sum[p] += sum[w]
			}
		}
		below[u] = sum
	}
}

// matchCount is the number of matches of pat in doc.
func matchCount(doc *xmltree.Document, pat *pattern.Pattern) uint64 {
	var total uint64
	for _, c := range rootCounts(doc, pat) {
		total += c
	}
	return total
}

// rowsByName answers, for every value v at once, how many rows the probe
// "shape with [name=v] on its root" returns over docs. shape's root must
// carry a bare [name] branch, and elements of that tag exactly one name
// child, as every pers element does.
func rowsByName(docs []*document, shape string) (map[string]uint64, error) {
	pat, err := sjos.ParsePattern(shape)
	if err != nil {
		return nil, err
	}
	rows := map[string]uint64{}
	for _, d := range docs {
		nameTag, ok := d.tree.LookupTag("name")
		if !ok {
			continue
		}
		byRoot := rootCounts(d.tree, pat)
		for _, n := range d.tree.NodesWithTag(nameTag) {
			if p := d.tree.Parent(n); d.tree.TagName(d.tree.Tag(p)) == pat.Nodes[0].Tag && byRoot[p] > 0 {
				rows[d.tree.Value(n)] += byRoot[p]
			}
		}
	}
	return rows, nil
}

// expectation is the oracle's answer for one query string over a document
// set: the total and the per-document split a full response must show.
type expectation struct {
	total  uint64
	perDoc map[string]uint64
}

func expect(docs []*document, query string) (expectation, error) {
	pat, err := sjos.ParsePattern(query)
	if err != nil {
		return expectation{}, err
	}
	e := expectation{perDoc: make(map[string]uint64, len(docs))}
	for _, d := range docs {
		if c := matchCount(d.tree, pat); c > 0 {
			e.perDoc[d.id] = c
			e.total += c
		}
	}
	return e, nil
}
