// Package pattern defines query pattern trees — the tree-structured query
// representation of §2.1 of the paper (the tree-pattern core of TAX/XQuery
// path expressions) — and a small XPath-like parser for building them.
//
// A pattern is a rooted node-labelled tree. Each node carries an element tag
// predicate (and optionally a value predicate); each edge is either a
// parent-child edge (XPath "/") or an ancestor-descendant edge ("//", the
// paper's "*" edge label). A match binds every pattern node to a document
// node so that all predicates and all structural edge relationships hold.
package pattern

import (
	"errors"
	"fmt"
	"strings"
)

// Axis is the structural relationship an edge requires.
type Axis uint8

const (
	// Child requires the parent-child relationship (XPath "/").
	Child Axis = iota
	// Descendant requires the ancestor-descendant relationship ("//").
	Descendant
)

// String returns the XPath spelling of the axis.
func (a Axis) String() string {
	if a == Descendant {
		return "//"
	}
	return "/"
}

// CmpOp is a comparison operator in a value predicate.
type CmpOp uint8

// Comparison operators for value predicates.
const (
	CmpNone CmpOp = iota // no value predicate
	CmpEq
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
	CmpContains
)

var cmpNames = map[CmpOp]string{
	CmpEq: "=", CmpNe: "!=", CmpLt: "<", CmpLe: "<=",
	CmpGt: ">", CmpGe: ">=", CmpContains: "~",
}

// String returns the operator's surface syntax.
func (op CmpOp) String() string { return cmpNames[op] }

// NoNode marks the absence of a node reference (e.g. Pattern.OrderBy when
// the query imposes no output order).
const NoNode = -1

// Node is one pattern tree node.
type Node struct {
	// Tag is the element tag the node must match.
	Tag string
	// Op/Value form an optional predicate on the matched element's text
	// value; Op == CmpNone means tag-only.
	Op    CmpOp
	Value string
}

// Pattern is a rooted pattern tree. Node 0 is the root. Parent[i] and
// Axis[i] describe the edge into node i (Parent[0] == NoNode). Edges are
// conventionally identified by their lower endpoint, so edge i (for i ≥ 1)
// is (Parent[i] -> i); a pattern with n nodes has n-1 edges.
type Pattern struct {
	Nodes  []Node
	Parent []int
	Axis   []Axis
	// OrderBy is the pattern node by whose document position the final
	// result must be ordered, or NoNode when the query leaves the order
	// free.
	OrderBy int
}

// N returns the number of pattern nodes.
func (p *Pattern) N() int { return len(p.Nodes) }

// NumEdges returns the number of edges (N()-1 for a well-formed pattern).
func (p *Pattern) NumEdges() int { return len(p.Nodes) - 1 }

// Children returns the child node indexes of node u.
func (p *Pattern) Children(u int) []int {
	var out []int
	for v := 1; v < len(p.Parent); v++ {
		if p.Parent[v] == u {
			out = append(out, v)
		}
	}
	return out
}

// Neighbors returns all nodes adjacent to u (parent and children).
func (p *Pattern) Neighbors(u int) []int {
	var out []int
	if u != 0 && p.Parent[u] != NoNode {
		out = append(out, p.Parent[u])
	}
	return append(out, p.Children(u)...)
}

// EdgeBetween returns the edge id connecting u and v (the lower endpoint's
// index) and whether such an edge exists.
func (p *Pattern) EdgeBetween(u, v int) (int, bool) {
	if u != 0 && p.Parent[u] == v {
		return u, true
	}
	if v != 0 && p.Parent[v] == u {
		return v, true
	}
	return 0, false
}

// Validate checks structural well-formedness: parent links form a tree
// rooted at node 0 with edges pointing from lower-numbered ancestors.
func (p *Pattern) Validate() error {
	n := p.N()
	if n == 0 {
		return errors.New("pattern: empty")
	}
	if len(p.Parent) != n || len(p.Axis) != n {
		return errors.New("pattern: Nodes/Parent/Axis length mismatch")
	}
	if p.Parent[0] != NoNode {
		return errors.New("pattern: root must have Parent == NoNode")
	}
	for i := 1; i < n; i++ {
		if p.Parent[i] < 0 || p.Parent[i] >= i {
			return fmt.Errorf("pattern: node %d has parent %d (want 0..%d)", i, p.Parent[i], i-1)
		}
	}
	if p.OrderBy != NoNode && (p.OrderBy < 0 || p.OrderBy >= n) {
		return fmt.Errorf("pattern: OrderBy %d out of range", p.OrderBy)
	}
	for i, nd := range p.Nodes {
		if nd.Tag == "" {
			return fmt.Errorf("pattern: node %d has empty tag", i)
		}
	}
	return nil
}

// String renders the pattern in the parser's syntax (a canonical XPath-like
// form), which round-trips through Parse.
func (p *Pattern) String() string {
	var sb strings.Builder
	p.render(&sb, 0, true)
	return sb.String()
}

func (p *Pattern) render(sb *strings.Builder, u int, isRoot bool) {
	if isRoot {
		sb.WriteString("/")
	} else {
		sb.WriteString(p.Axis[u].String())
	}
	sb.WriteString(p.Nodes[u].Tag)
	if p.OrderBy == u {
		sb.WriteString("#")
	}
	if p.Nodes[u].Op != CmpNone {
		fmt.Fprintf(sb, "[. %s %s]", p.Nodes[u].Op, QuoteLiteral(p.Nodes[u].Value))
	}
	var kids []int
	for _, c := range p.Children(u) {
		if strings.HasPrefix(p.Nodes[c].Tag, "@") {
			// Attribute pseudo-nodes use the [@name op "v"] form.
			sb.WriteString("[")
			sb.WriteString(p.Nodes[c].Tag)
			if p.Nodes[c].Op != CmpNone {
				fmt.Fprintf(sb, " %s %s", p.Nodes[c].Op, QuoteLiteral(p.Nodes[c].Value))
			}
			sb.WriteString("]")
			continue
		}
		kids = append(kids, c)
	}
	for i, c := range kids {
		last := i == len(kids)-1
		if last {
			p.render(sb, c, false)
		} else {
			sb.WriteString("[")
			p.render(sb, c, false)
			sb.WriteString("]")
		}
	}
}

// A BuilderNode is returned by Builder methods to allow chaining children.
type BuilderNode int

// Builder constructs patterns programmatically.
//
//	b := pattern.NewBuilder("manager")
//	emp := b.Desc(b.Root(), "employee")
//	b.Kid(emp, "name")
//	p := b.Pattern()
type Builder struct{ p Pattern }

// NewBuilder starts a pattern whose root matches tag.
func NewBuilder(rootTag string) *Builder {
	return &Builder{p: Pattern{
		Nodes:   []Node{{Tag: rootTag}},
		Parent:  []int{NoNode},
		Axis:    []Axis{Child},
		OrderBy: NoNode,
	}}
}

// Root returns the root node handle.
func (b *Builder) Root() BuilderNode { return 0 }

// Kid adds a parent-child edge from u to a new node matching tag.
func (b *Builder) Kid(u BuilderNode, tag string) BuilderNode {
	return b.add(u, tag, Child)
}

// Desc adds an ancestor-descendant edge from u to a new node matching tag.
func (b *Builder) Desc(u BuilderNode, tag string) BuilderNode {
	return b.add(u, tag, Descendant)
}

func (b *Builder) add(u BuilderNode, tag string, ax Axis) BuilderNode {
	b.p.Nodes = append(b.p.Nodes, Node{Tag: tag})
	b.p.Parent = append(b.p.Parent, int(u))
	b.p.Axis = append(b.p.Axis, ax)
	return BuilderNode(len(b.p.Nodes) - 1)
}

// Where attaches a value predicate to node u.
func (b *Builder) Where(u BuilderNode, op CmpOp, value string) *Builder {
	b.p.Nodes[u].Op = op
	b.p.Nodes[u].Value = value
	return b
}

// OrderBy requires the final result to be ordered by node u's position.
func (b *Builder) OrderBy(u BuilderNode) *Builder {
	b.p.OrderBy = int(u)
	return b
}

// Pattern returns the built pattern (a copy safe to retain).
func (b *Builder) Pattern() *Pattern {
	cp := Pattern{
		Nodes:   append([]Node(nil), b.p.Nodes...),
		Parent:  append([]int(nil), b.p.Parent...),
		Axis:    append([]Axis(nil), b.p.Axis...),
		OrderBy: b.p.OrderBy,
	}
	return &cp
}
