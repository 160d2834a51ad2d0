// Package xquery compiles a small XQuery subset into tree patterns — the
// translation the paper presupposes in §2.1: "The XPath expressions used to
// bind variables in XQuery, along with the conditions in the WHERE clause,
// can be expressed as the matching of a query pattern tree".
//
// Supported form (FLWOR without LET, one RETURN):
//
//		for $m in //manager, $e in $m//employee
//		where $e/salary >= 50000 and $m/department
//		order by $m
//		return $m/name, $e/name
//
//	  - each FOR variable binds to the last step of a path, rooted either
//	    absolutely (//tag/...) or at a previously bound variable,
//	  - WHERE conjuncts are existence tests (a path) or comparisons
//	    (path op literal) — both become pattern branches, with the
//	    comparison attached to the branch's terminal node,
//	  - ORDER BY names a variable or a path from one; the result is ordered
//	    by that node's document position,
//	  - RETURN lists the projected paths.
//
// Identical steps are shared, so the compiled pattern is naturally
// minimal with respect to the query's own redundancy.
package xquery

import (
	"fmt"
	"strings"

	"sjos/internal/pattern"
)

// Compiled is the output of Compile: the pattern tree plus the mapping
// back to the query's variables and return items.
type Compiled struct {
	// Pattern is the tree pattern to match.
	Pattern *pattern.Pattern
	// Vars maps variable names to pattern node indexes.
	Vars map[string]int
	// Return lists the pattern nodes projected by the RETURN clause, in
	// clause order.
	Return []int
}

// Compile parses and compiles the query.
func Compile(src string) (*Compiled, error) {
	q, err := parse(src)
	if err != nil {
		return nil, fmt.Errorf("xquery: %w", err)
	}
	return q.compile()
}

// ---- AST ----

type ast struct {
	bindings []binding
	wheres   []condition
	orderBy  *varPath
	returns  []varPath
}

type binding struct {
	name string
	path varPath
}

// varPath is a path rooted at a variable ("" = absolute) followed by steps.
type varPath struct {
	root  string // variable name, or "" for an absolute path
	steps []step
}

type step struct {
	axis pattern.Axis
	tag  string
}

type condition struct {
	path  varPath
	op    pattern.CmpOp
	value string
}

// ---- compiler ----

func (a *ast) compile() (*Compiled, error) {
	c := &compiler{
		vars: make(map[string]int),
		kids: make(map[childKey]int),
	}
	for _, b := range a.bindings {
		node, err := c.addPath(b.path)
		if err != nil {
			return nil, err
		}
		if _, dup := c.vars[b.name]; dup {
			return nil, fmt.Errorf("xquery: duplicate variable $%s", b.name)
		}
		c.vars[b.name] = node
	}
	for _, w := range a.wheres {
		node, err := c.addPath(w.path)
		if err != nil {
			return nil, err
		}
		if w.op != pattern.CmpNone {
			if c.pat.Nodes[node].Op != pattern.CmpNone &&
				(c.pat.Nodes[node].Op != w.op || c.pat.Nodes[node].Value != w.value) {
				return nil, fmt.Errorf("xquery: conflicting predicates on %s", w.path)
			}
			c.pat.Nodes[node].Op = w.op
			c.pat.Nodes[node].Value = w.value
		}
	}
	out := &Compiled{Vars: c.vars}
	for _, r := range a.returns {
		node, err := c.addPath(r)
		if err != nil {
			return nil, err
		}
		out.Return = append(out.Return, node)
	}
	c.pat.OrderBy = pattern.NoNode
	if a.orderBy != nil {
		node, err := c.addPath(*a.orderBy)
		if err != nil {
			return nil, err
		}
		c.pat.OrderBy = node
	}
	pat := c.pat
	if err := pat.Validate(); err != nil {
		return nil, fmt.Errorf("xquery: compiled pattern invalid: %w", err)
	}
	out.Pattern = &pat
	return out, nil
}

type childKey struct {
	parent int
	axis   pattern.Axis
	tag    string
}

type compiler struct {
	pat  pattern.Pattern
	vars map[string]int
	kids map[childKey]int // step sharing
}

// addPath resolves or extends the pattern along the varPath, returning the
// terminal node's index.
func (c *compiler) addPath(p varPath) (int, error) {
	cur := -1
	if p.root != "" {
		node, ok := c.vars[p.root]
		if !ok {
			return 0, fmt.Errorf("xquery: unbound variable $%s", p.root)
		}
		cur = node
	}
	for i, s := range p.steps {
		if cur == -1 && i == 0 {
			// Absolute first step: the pattern root.
			if c.pat.N() == 0 {
				c.pat.Nodes = append(c.pat.Nodes, pattern.Node{Tag: s.tag})
				c.pat.Parent = append(c.pat.Parent, pattern.NoNode)
				c.pat.Axis = append(c.pat.Axis, pattern.Child)
				cur = 0
				continue
			}
			if c.pat.Nodes[0].Tag != s.tag {
				return 0, fmt.Errorf("xquery: second absolute path root %q conflicts with %q — root the path at a variable instead",
					s.tag, c.pat.Nodes[0].Tag)
			}
			cur = 0
			continue
		}
		key := childKey{parent: cur, axis: s.axis, tag: s.tag}
		if existing, ok := c.kids[key]; ok {
			cur = existing
			continue
		}
		c.pat.Nodes = append(c.pat.Nodes, pattern.Node{Tag: s.tag})
		c.pat.Parent = append(c.pat.Parent, cur)
		c.pat.Axis = append(c.pat.Axis, s.axis)
		cur = len(c.pat.Nodes) - 1
		c.kids[key] = cur
	}
	if cur == -1 {
		return 0, fmt.Errorf("xquery: empty path")
	}
	return cur, nil
}

// String renders a varPath for error messages.
func (p varPath) String() string {
	var sb strings.Builder
	if p.root != "" {
		sb.WriteString("$" + p.root)
	}
	for _, s := range p.steps {
		sb.WriteString(s.axis.String())
		sb.WriteString(s.tag)
	}
	return sb.String()
}
