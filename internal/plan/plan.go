// Package plan defines physical evaluation plans for tree-pattern queries:
// rooted operator trees built from index scans, Stack-Tree structural joins
// and sorts (§2.3 of the paper). Plans are produced by the optimizers in
// internal/core and interpreted by the executor in internal/exec.
package plan

import (
	"fmt"
	"strconv"
	"strings"

	"sjos/internal/pattern"
)

// Op is a physical operator kind.
type Op uint8

// Physical operator kinds.
const (
	// OpIndexScan retrieves all candidate nodes for one pattern node via
	// the element-tag index, in document order.
	OpIndexScan Op = iota
	// OpStructuralJoin joins its two inputs on one pattern edge with a
	// Stack-Tree algorithm. Left is the ancestor side, Right the
	// descendant side; both must arrive ordered by their join nodes.
	OpStructuralJoin
	// OpSort materialises its input (Left) and re-orders it by the
	// document position of one pattern node. Sorts are the only blocking
	// operators.
	OpSort
)

// Algo selects the Stack-Tree variant of a structural join.
type Algo uint8

// Stack-Tree join algorithm variants.
const (
	// AlgoDesc is Stack-Tree-Desc: output ordered by the descendant node.
	AlgoDesc Algo = iota
	// AlgoAnc is Stack-Tree-Anc: output ordered by the ancestor node.
	AlgoAnc
)

// String names the algorithm as in the paper.
func (a Algo) String() string {
	if a == AlgoAnc {
		return "STJ-Anc"
	}
	return "STJ-Desc"
}

// Node is one operator in a plan tree.
type Node struct {
	Op Op

	// PatternNode is the pattern node an OpIndexScan feeds.
	PatternNode int
	// ValueIndex marks an OpIndexScan that retrieves its candidates by a
	// value-index probe of the pattern node's predicate instead of a full
	// tag scan + filter (predicate pushdown). Only meaningful on leaves of
	// predicated pattern nodes; the executor falls back to scan+filter if
	// the store cannot serve the probe.
	ValueIndex bool

	// Left and Right are the operator inputs. OpSort uses only Left.
	Left, Right *Node

	// AncNode and DescNode are the pattern nodes joined by an
	// OpStructuralJoin (the edge's upper and lower endpoints).
	AncNode, DescNode int
	// Axis is the structural relationship the join enforces.
	Axis pattern.Axis
	// Algo is the Stack-Tree variant used.
	Algo Algo

	// SortBy is the pattern node an OpSort orders by.
	SortBy int

	// OrderedBy annotates which pattern node's position orders this
	// operator's output.
	OrderedBy int
	// EstCard is the optimizer's estimated output cardinality.
	EstCard float64
	// EstCost is the estimated cumulative cost of the subtree.
	EstCost float64
}

// NewIndexScan returns a leaf scanning candidates for pattern node u.
func NewIndexScan(u int) *Node {
	return &Node{Op: OpIndexScan, PatternNode: u, OrderedBy: u}
}

// NewJoin returns a structural join of left (ancestor side, ordered by anc)
// with right (descendant side, ordered by desc).
func NewJoin(left, right *Node, anc, desc int, ax pattern.Axis, algo Algo) *Node {
	ord := desc
	if algo == AlgoAnc {
		ord = anc
	}
	return &Node{
		Op: OpStructuralJoin, Left: left, Right: right,
		AncNode: anc, DescNode: desc, Axis: ax, Algo: algo, OrderedBy: ord,
	}
}

// NewSort returns a sort of input by pattern node u's position.
func NewSort(input *Node, u int) *Node {
	return &Node{Op: OpSort, Left: input, SortBy: u, OrderedBy: u}
}

// Columns returns the set of pattern nodes bound by this subtree's output,
// as a bitmask (pattern node i -> bit i). Patterns are small (≤ 64 nodes).
func (n *Node) Columns() uint64 {
	switch n.Op {
	case OpIndexScan:
		return 1 << uint(n.PatternNode)
	case OpSort:
		return n.Left.Columns()
	default:
		return n.Left.Columns() | n.Right.Columns()
	}
}

// Joins counts the structural joins in the subtree.
func (n *Node) Joins() int {
	switch n.Op {
	case OpIndexScan:
		return 0
	case OpSort:
		return n.Left.Joins()
	default:
		return 1 + n.Left.Joins() + n.Right.Joins()
	}
}

// Sorts counts the sort operators in the subtree.
func (n *Node) Sorts() int {
	switch n.Op {
	case OpIndexScan:
		return 0
	case OpSort:
		return 1 + n.Left.Sorts()
	default:
		return n.Left.Sorts() + n.Right.Sorts()
	}
}

// FullyPipelined reports whether the plan contains no blocking operator
// (§3.4: fully-pipelined plans are exactly the sort-free plans).
func (n *Node) FullyPipelined() bool { return n.Sorts() == 0 }

// LeftDeep reports whether every join's descendant (right) input is a leaf
// access — the XML analogue of relational left-deep plans (§3.3.2): at most
// one "growing" intermediate result.
func (n *Node) LeftDeep() bool {
	switch n.Op {
	case OpIndexScan:
		return true
	case OpSort:
		return n.Left.LeftDeep()
	default:
		if !leafAccess(n.Left) && !leafAccess(n.Right) {
			return false
		}
		return n.Left.LeftDeep() && n.Right.LeftDeep()
	}
}

// leafAccess reports whether n is an index scan, possibly under sorts.
func leafAccess(n *Node) bool {
	for n.Op == OpSort {
		n = n.Left
	}
	return n.Op == OpIndexScan
}

// Validate checks that the plan is a correct evaluation of pat: every
// pattern node scanned exactly once, every edge joined exactly once with
// matching axis, and every join input ordered by its join node. If
// requireOrder is true, the root output must be ordered by pat.OrderBy
// (when the pattern specifies one).
func (n *Node) Validate(pat *pattern.Pattern, requireOrder bool) error {
	seenEdges := make(map[int]bool)
	if err := n.validate(pat, seenEdges); err != nil {
		return err
	}
	if n.Columns() != fullMask(pat.N()) {
		return fmt.Errorf("plan: covers columns %b, want all %d pattern nodes", n.Columns(), pat.N())
	}
	if len(seenEdges) != pat.NumEdges() {
		return fmt.Errorf("plan: joined %d edges, want %d", len(seenEdges), pat.NumEdges())
	}
	if requireOrder && pat.OrderBy != pattern.NoNode && n.OrderedBy != pat.OrderBy {
		return fmt.Errorf("plan: output ordered by %d, want %d", n.OrderedBy, pat.OrderBy)
	}
	return nil
}

func fullMask(n int) uint64 { return (uint64(1) << uint(n)) - 1 }

func (n *Node) validate(pat *pattern.Pattern, seenEdges map[int]bool) error {
	switch n.Op {
	case OpIndexScan:
		if n.PatternNode < 0 || n.PatternNode >= pat.N() {
			return fmt.Errorf("plan: scan of pattern node %d out of range", n.PatternNode)
		}
		if n.OrderedBy != n.PatternNode {
			return fmt.Errorf("plan: scan of %d claims order by %d", n.PatternNode, n.OrderedBy)
		}
		if n.ValueIndex && pat.Nodes[n.PatternNode].Op == pattern.CmpNone {
			return fmt.Errorf("plan: value-index scan of %d, which has no predicate", n.PatternNode)
		}
		return nil
	case OpSort:
		if err := n.Left.validate(pat, seenEdges); err != nil {
			return err
		}
		if n.Left.Columns()&(1<<uint(n.SortBy)) == 0 {
			return fmt.Errorf("plan: sort by %d, not a column of its input", n.SortBy)
		}
		if n.OrderedBy != n.SortBy {
			return fmt.Errorf("plan: sort by %d claims order by %d", n.SortBy, n.OrderedBy)
		}
		return nil
	case OpStructuralJoin:
		if err := n.Left.validate(pat, seenEdges); err != nil {
			return err
		}
		if err := n.Right.validate(pat, seenEdges); err != nil {
			return err
		}
		edge, ok := pat.EdgeBetween(n.AncNode, n.DescNode)
		if !ok {
			return fmt.Errorf("plan: join on non-edge (%d,%d)", n.AncNode, n.DescNode)
		}
		if pat.Parent[edge] != n.AncNode || edge != n.DescNode {
			return fmt.Errorf("plan: join (%d,%d) has ancestor/descendant swapped", n.AncNode, n.DescNode)
		}
		if seenEdges[edge] {
			return fmt.Errorf("plan: edge %d joined twice", edge)
		}
		seenEdges[edge] = true
		if n.Axis != pat.Axis[edge] {
			return fmt.Errorf("plan: edge %d axis %v, pattern says %v", edge, n.Axis, pat.Axis[edge])
		}
		if n.Left.Columns()&(1<<uint(n.AncNode)) == 0 {
			return fmt.Errorf("plan: ancestor %d not in left input", n.AncNode)
		}
		if n.Right.Columns()&(1<<uint(n.DescNode)) == 0 {
			return fmt.Errorf("plan: descendant %d not in right input", n.DescNode)
		}
		if n.Left.OrderedBy != n.AncNode {
			return fmt.Errorf("plan: left input ordered by %d, join needs %d", n.Left.OrderedBy, n.AncNode)
		}
		if n.Right.OrderedBy != n.DescNode {
			return fmt.Errorf("plan: right input ordered by %d, join needs %d", n.Right.OrderedBy, n.DescNode)
		}
		want := n.DescNode
		if n.Algo == AlgoAnc {
			want = n.AncNode
		}
		if n.OrderedBy != want {
			return fmt.Errorf("plan: %v output claims order by %d, want %d", n.Algo, n.OrderedBy, want)
		}
		return nil
	default:
		return fmt.Errorf("plan: unknown operator %d", n.Op)
	}
}

// Format renders the plan as an indented tree using the pattern's tags for
// readability.
func (n *Node) Format(pat *pattern.Pattern) string {
	var sb strings.Builder
	n.format(pat, &sb, 0)
	return sb.String()
}

func (n *Node) format(pat *pattern.Pattern, sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	switch n.Op {
	case OpIndexScan:
		if n.ValueIndex {
			sb.WriteString("ValueIndexScan ")
		} else {
			sb.WriteString("IndexScan ")
		}
		writeTag(sb, pat, n.PatternNode)
	case OpSort:
		sb.WriteString("Sort by ")
		writeTag(sb, pat, n.SortBy)
	case OpStructuralJoin:
		sb.WriteString(n.Algo.String())
		sb.WriteByte(' ')
		writeTag(sb, pat, n.AncNode)
		sb.WriteByte(' ')
		sb.WriteString(n.Axis.String())
		sb.WriteByte(' ')
		writeTag(sb, pat, n.DescNode)
	}
	if n.EstCard > 0 || n.EstCost > 0 {
		var num [32]byte
		sb.WriteString("  [card≈")
		sb.Write(strconv.AppendFloat(num[:0], n.EstCard, 'f', 0, 64))
		sb.WriteString(" cost≈")
		sb.Write(strconv.AppendFloat(num[:0], n.EstCost, 'f', 0, 64))
		sb.WriteByte(']')
	}
	sb.WriteByte('\n')
	if n.Left != nil {
		n.Left.format(pat, sb, depth+1)
	}
	if n.Right != nil {
		n.Right.format(pat, sb, depth+1)
	}
}

// writeTag writes pattern node u as tag($u), or as $u when the pattern has
// no node u.
func writeTag(sb *strings.Builder, pat *pattern.Pattern, u int) {
	if u >= 0 && u < pat.N() {
		sb.WriteString(pat.Nodes[u].Tag)
		sb.WriteString("($")
		sb.WriteString(strconv.Itoa(u))
		sb.WriteByte(')')
		return
	}
	sb.WriteByte('$')
	sb.WriteString(strconv.Itoa(u))
}
