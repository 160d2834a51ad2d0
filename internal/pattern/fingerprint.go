package pattern

import (
	"bytes"
	"cmp"
	"slices"
	"strconv"
)

// Fingerprint returns a canonical identity for the pattern — equal for any
// two patterns that are isomorphic as rooted labelled trees (same tags,
// axes, value predicates and OrderBy position), regardless of how their
// nodes happen to be numbered — together with the canonical renumbering
// that witnesses it: canon[u] is the canonical index of pattern node u.
//
// Structurally recurring queries are the norm in real workloads (the same
// handful of shapes arrives over and over with different node numberings
// from different frontends), so the fingerprint is the natural plan-cache
// key: a plan optimized for one numbering is transported to another via
// plan.Remap with the two canonical permutations.
//
// The encoding is the classic bottom-up canonical form for rooted trees:
// each node's label (axis into it, tag, predicate, OrderBy marker) is
// concatenated with the sorted encodings of its child subtrees. Canonical
// indexes are assigned in preorder visiting children in that sorted order,
// so equal fingerprints come with mutually compatible numberings. When two
// sibling subtrees are identical their relative order is arbitrary, which
// is harmless: the tie is an automorphism of the pattern, and the match
// set is invariant under automorphisms.
func Fingerprint(p *Pattern) (string, []int) {
	n := p.N()
	// kids holds every node's children, one parent's after another's:
	// node u's are kids[first[u]:first[u+1]].
	first := make([]int, n+2)
	for v := 1; v < n; v++ {
		first[p.Parent[v]+2]++
	}
	for u := 2; u < n+2; u++ {
		first[u] += first[u-1]
	}
	kids := make([]int, n)
	for v := 1; v < n; v++ {
		kids[first[p.Parent[v]+1]] = v
		first[p.Parent[v]+1]++
	}

	// Every encoding is written once, into buf; enc[u] is where node u's
	// lies. Children have higher numbers than their parent, so going down
	// from n-1 finds each node's child encodings complete.
	buf := make([]byte, 0, 64*n)
	enc := make([][2]int, n)
	at := func(u int) []byte { return buf[enc[u][0]:enc[u][1]] }
	for u := n - 1; u >= 0; u-- {
		// Children in canonical order: by encoding, equal encodings (an
		// automorphism of the pattern) by node number.
		mine := kids[first[u]:first[u+1]]
		slices.SortFunc(mine, func(a, b int) int {
			if c := bytes.Compare(at(a), at(b)); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		start := len(buf)
		if u == 0 {
			buf = append(buf, '/')
		} else {
			buf = append(buf, p.Axis[u].String()...)
		}
		buf = strconv.AppendQuote(buf, p.Nodes[u].Tag)
		if p.Nodes[u].Op != CmpNone {
			buf = append(buf, '[')
			buf = strconv.AppendInt(buf, int64(p.Nodes[u].Op), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendQuote(buf, p.Nodes[u].Value)
			buf = append(buf, ']')
		}
		if p.OrderBy == u {
			buf = append(buf, '#')
		}
		buf = append(buf, '(')
		for i, c := range mine {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, at(c)...)
		}
		buf = append(buf, ')')
		enc[u] = [2]int{start, len(buf)}
	}

	// Canonical indexes in preorder over the sorted children.
	canon := make([]int, n)
	todo := append(make([]int, 0, n), 0) // a stack: the next node on top
	for next := 0; len(todo) > 0; next++ {
		u := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		canon[u] = next
		mine := kids[first[u]:first[u+1]]
		for i := len(mine) - 1; i >= 0; i-- {
			todo = append(todo, mine[i])
		}
	}
	return string(at(0)), canon
}

// InversePermutation inverts a permutation produced by Fingerprint:
// inv[canon[u]] == u. It is the mapping a cached canonical-numbered plan is
// remapped through to fit a concrete pattern's numbering.
func InversePermutation(perm []int) []int {
	inv := make([]int, len(perm))
	for i, p := range perm {
		inv[p] = i
	}
	return inv
}
