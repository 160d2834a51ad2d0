package pattern

import (
	"math/rand"
	"testing"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder("manager")
	emp := b.Desc(b.Root(), "employee")
	b.Kid(emp, "name")
	dep := b.Desc(b.Root(), "department")
	b.Where(dep, CmpEq, "tools")
	b.OrderBy(emp)
	p := b.Pattern()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.N() != 4 || p.NumEdges() != 3 {
		t.Fatalf("N=%d edges=%d", p.N(), p.NumEdges())
	}
	if p.OrderBy != int(emp) {
		t.Fatalf("OrderBy = %d", p.OrderBy)
	}
	if p.Axis[1] != Descendant || p.Axis[2] != Child {
		t.Fatalf("axes: %v", p.Axis)
	}
	if got := p.Children(0); len(got) != 2 {
		t.Fatalf("root children = %v", got)
	}
	if got := p.Neighbors(int(emp)); len(got) != 2 {
		t.Fatalf("emp neighbors = %v", got)
	}
	if e, ok := p.EdgeBetween(0, int(emp)); !ok || e != int(emp) {
		t.Fatalf("EdgeBetween(0,emp) = %d,%v", e, ok)
	}
	if _, ok := p.EdgeBetween(int(emp), int(dep)); ok {
		t.Fatal("emp-dep edge should not exist")
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []Pattern{
		{}, // empty
		{Nodes: []Node{{Tag: "a"}}, Parent: []int{0}, Axis: []Axis{Child}, OrderBy: NoNode},                             // root with parent
		{Nodes: []Node{{Tag: "a"}, {Tag: "b"}}, Parent: []int{NoNode, 1}, Axis: []Axis{Child, Child}, OrderBy: NoNode},  // self/forward parent
		{Nodes: []Node{{Tag: "a"}, {Tag: ""}}, Parent: []int{NoNode, 0}, Axis: []Axis{Child, Child}, OrderBy: NoNode},   // empty tag
		{Nodes: []Node{{Tag: "a"}}, Parent: []int{NoNode}, Axis: []Axis{Child}, OrderBy: 5},                             // orderby range
		{Nodes: []Node{{Tag: "a"}, {Tag: "b"}}, Parent: []int{NoNode}, Axis: []Axis{Child, Child}, OrderBy: NoNode},     // len mismatch
		{Nodes: []Node{{Tag: "a"}, {Tag: "b"}}, Parent: []int{NoNode, -2}, Axis: []Axis{Child, Child}, OrderBy: NoNode}, // bad parent
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted malformed pattern", i)
		}
	}
}

func TestParseSimplePath(t *testing.T) {
	p, err := Parse("/db/item/price")
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 3 {
		t.Fatalf("N = %d", p.N())
	}
	for i, want := range []string{"db", "item", "price"} {
		if p.Nodes[i].Tag != want {
			t.Errorf("node %d tag = %q, want %q", i, p.Nodes[i].Tag, want)
		}
	}
	if p.Axis[1] != Child || p.Axis[2] != Child {
		t.Errorf("axes = %v", p.Axis)
	}
	if p.OrderBy != NoNode {
		t.Errorf("OrderBy = %d", p.OrderBy)
	}
}

func TestParseDescendantAndBranches(t *testing.T) {
	p, err := Parse("//manager[.//employee/name]//department/name")
	if err != nil {
		t.Fatal(err)
	}
	// manager, employee, name, department, name
	if p.N() != 5 {
		t.Fatalf("N = %d: %+v", p.N(), p.Nodes)
	}
	tags := []string{"manager", "employee", "name", "department", "name"}
	for i, want := range tags {
		if p.Nodes[i].Tag != want {
			t.Fatalf("node %d = %q, want %q", i, p.Nodes[i].Tag, want)
		}
	}
	wantParent := []int{NoNode, 0, 1, 0, 3}
	wantAxis := []Axis{Child, Descendant, Child, Descendant, Child}
	for i := range tags {
		if p.Parent[i] != wantParent[i] {
			t.Errorf("parent[%d] = %d, want %d", i, p.Parent[i], wantParent[i])
		}
		if p.Axis[i] != wantAxis[i] {
			t.Errorf("axis[%d] = %v, want %v", i, p.Axis[i], wantAxis[i])
		}
	}
}

func TestParsePredicates(t *testing.T) {
	p, err := Parse(`/db/item[@id = "42"][. ~ "rare"]/price[. > 10]`)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 4 {
		t.Fatalf("N = %d", p.N())
	}
	var attr *Node
	for i := range p.Nodes {
		if p.Nodes[i].Tag == "@id" {
			attr = &p.Nodes[i]
		}
	}
	if attr == nil {
		t.Fatal("@id node missing")
	}
	if attr.Op != CmpEq || attr.Value != "42" {
		t.Errorf("@id predicate = %v %q", attr.Op, attr.Value)
	}
	item := &p.Nodes[1]
	if item.Op != CmpContains || item.Value != "rare" {
		t.Errorf("item predicate = %v %q", item.Op, item.Value)
	}
	price := &p.Nodes[len(p.Nodes)-1]
	if price.Tag != "price" || price.Op != CmpGt || price.Value != "10" {
		t.Errorf("price predicate = %+v", price)
	}
}

func TestParseOrderByMarker(t *testing.T) {
	p, err := Parse("//manager#[employee][department]")
	if err != nil {
		t.Fatal(err)
	}
	if p.OrderBy != 0 {
		t.Fatalf("OrderBy = %d", p.OrderBy)
	}
	if p.N() != 3 {
		t.Fatalf("N = %d", p.N())
	}
	if _, err := Parse("//a#/b#"); err == nil {
		t.Fatal("duplicate # should fail")
	}
}

func TestParseAttributeExistence(t *testing.T) {
	p, err := Parse("//item[@id]")
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 2 || p.Nodes[1].Tag != "@id" || p.Nodes[1].Op != CmpNone {
		t.Fatalf("pattern = %+v", p.Nodes)
	}
}

func TestParseBareLiteral(t *testing.T) {
	p, err := Parse("//price[. >= 99]")
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes[0].Op != CmpGe || p.Nodes[0].Value != "99" {
		t.Fatalf("predicate = %v %q", p.Nodes[0].Op, p.Nodes[0].Value)
	}
}

// TestParseQuotedLiteral pins the quoted form: \" and \\ are the only
// escapes, any other backslash (and a raw newline) stands for itself, and
// String writes a form that reads back as the same value.
func TestParseQuotedLiteral(t *testing.T) {
	for src, want := range map[string]string{
		`//a[. = "emp-7"]`:        "emp-7",
		`//a[. = ""]`:             "",
		`//a[. = "C:\temp"]`:      `C:\temp`,
		`//a[. = "a\d"]`:          `a\d`,
		`//a[. = "x\\y\"z"]`:      `x\y"z`,
		`//a[. = "tail\\"]`:       `tail\`,
		"//a[. = \"two\nlines\"]": "two\nlines",
		`//a[. = x"y]`:            `x"y`,
	} {
		p, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if got := p.Nodes[0].Value; got != want {
			t.Errorf("Parse(%q): value %q, want %q", src, got, want)
		}
		p2, err := Parse(p.String())
		if err != nil || p2.Nodes[0].Value != want {
			t.Errorf("Parse(%q) renders as %q, which reads back as %v (err %v)", src, p.String(), p2, err)
		}
	}
	if _, err := Parse(`//a[. = "tail\"]`); err == nil {
		t.Error(`a literal whose closing quote is escaped parsed`)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"//",
		"//a[",
		"//a[]",
		"//a[. =]",
		`//a[. = "unterminated]`,
		"//a]b",
		"//a[. = 1][. = 2]", // duplicate value predicate
		"//a bogus",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{
		"//manager[.//employee/name]//department/name",
		`/db/item[@id = "42"]/price`,
		"//manager#[employee][department]",
		"//a[b][c]//d",
		`//price[. >= "99"]`,
	} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		canon := p.String()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("reparse of %q (canon of %q): %v", canon, s, err)
		}
		if got := p2.String(); got != canon {
			t.Errorf("canonical form not stable: %q -> %q -> %q", s, canon, got)
		}
	}
}

// randomPattern builds a random valid pattern with n nodes.
func randomPattern(rng *rand.Rand, n int) *Pattern {
	tags := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	b := NewBuilder(tags[rng.Intn(len(tags))])
	handles := []BuilderNode{b.Root()}
	for i := 1; i < n; i++ {
		parent := handles[rng.Intn(len(handles))]
		tag := tags[rng.Intn(len(tags))]
		var h BuilderNode
		if rng.Intn(2) == 0 {
			h = b.Kid(parent, tag)
		} else {
			h = b.Desc(parent, tag)
		}
		handles = append(handles, h)
	}
	if rng.Intn(2) == 0 {
		b.OrderBy(handles[rng.Intn(len(handles))])
	}
	return b.Pattern()
}

func TestRandomPatternsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		p := randomPattern(rng, 1+rng.Intn(10))
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		canon := p.String()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("trial %d: reparse %q: %v", trial, canon, err)
		}
		if p2.N() != p.N() {
			t.Fatalf("trial %d: %q reparsed to %d nodes, want %d", trial, canon, p2.N(), p.N())
		}
		if got := p2.String(); got != canon {
			t.Fatalf("trial %d: unstable canon %q -> %q", trial, canon, got)
		}
	}
}
