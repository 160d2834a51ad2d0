package xquery

import (
	"testing"

	"sjos/internal/pattern"
)

func TestCompileSimple(t *testing.T) {
	c, err := Compile(`for $m in //manager return $m/name`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Pattern.N() != 2 {
		t.Fatalf("pattern: %s", c.Pattern)
	}
	if c.Vars["m"] != 0 {
		t.Fatalf("vars: %v", c.Vars)
	}
	if len(c.Return) != 1 || c.Return[0] != 1 {
		t.Fatalf("return: %v", c.Return)
	}
	if c.Pattern.Axis[1] != pattern.Child || c.Pattern.Nodes[1].Tag != "name" {
		t.Fatalf("pattern: %s", c.Pattern)
	}
}

func TestCompileRunningExample(t *testing.T) {
	// The paper's Example 2.2 as a FLWOR query.
	c, err := Compile(`
		for $a in //manager, $d in $a//manager
		where $a//employee/name and $d/department/name
		return $a/name`)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Pattern
	// manager, manager, employee, name, department, name, name = 7 nodes.
	if p.N() != 7 {
		t.Fatalf("%d nodes: %s", p.N(), p)
	}
	if c.Vars["a"] != 0 || p.Nodes[c.Vars["d"]].Tag != "manager" {
		t.Fatalf("vars: %v", c.Vars)
	}
	if p.Axis[c.Vars["d"]] != pattern.Descendant {
		t.Fatal("$d should be a descendant of $a")
	}
	if len(c.Return) != 1 || p.Nodes[c.Return[0]].Tag != "name" {
		t.Fatalf("return: %v", c.Return)
	}
}

func TestCompileWhereComparison(t *testing.T) {
	c, err := Compile(`for $e in //employee where $e/salary >= 50000 return $e/name`)
	if err != nil {
		t.Fatal(err)
	}
	var sal *pattern.Node
	for i := range c.Pattern.Nodes {
		if c.Pattern.Nodes[i].Tag == "salary" {
			sal = &c.Pattern.Nodes[i]
		}
	}
	if sal == nil || sal.Op != pattern.CmpGe || sal.Value != "50000" {
		t.Fatalf("salary predicate: %+v", sal)
	}
}

func TestCompileStringLiteralAndContains(t *testing.T) {
	c, err := Compile(`for $a in //article where $a/author = "knuth" and $a/title ~ "art" return $a`)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string][2]string{}
	for _, n := range c.Pattern.Nodes {
		if n.Op != pattern.CmpNone {
			ops[n.Tag] = [2]string{n.Op.String(), n.Value}
		}
	}
	if ops["author"] != [2]string{"=", "knuth"} || ops["title"] != [2]string{"~", "art"} {
		t.Fatalf("ops: %v", ops)
	}
	// return $a: projecting the variable itself.
	if len(c.Return) != 1 || c.Return[0] != c.Vars["a"] {
		t.Fatalf("return: %v vars %v", c.Return, c.Vars)
	}
}

// TestCompileLiteralEscapes: a quoted literal means here what it means in a
// pattern (pattern.ScanLiteral).
func TestCompileLiteralEscapes(t *testing.T) {
	c, err := Compile(`for $a in //article where $a/title = "say \"hi\"" and $a/path = "C:\temp\\" return $a`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, n := range c.Pattern.Nodes {
		if n.Op != pattern.CmpNone {
			got[n.Tag] = n.Value
		}
	}
	if got["title"] != `say "hi"` || got["path"] != `C:\temp\` {
		t.Fatalf("values: %q", got)
	}
}

func TestCompileOrderBy(t *testing.T) {
	c, err := Compile(`for $m in //manager order by $m return $m/name`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Pattern.OrderBy != c.Vars["m"] {
		t.Fatalf("OrderBy = %d", c.Pattern.OrderBy)
	}
	c2, err := Compile(`for $m in //manager order by $m/name return $m`)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Pattern.OrderBy == c2.Vars["m"] || c2.Pattern.Nodes[c2.Pattern.OrderBy].Tag != "name" {
		t.Fatalf("OrderBy = %d", c2.Pattern.OrderBy)
	}
}

func TestCompileStepSharing(t *testing.T) {
	// $m/name appears in where and return: one pattern node.
	c, err := Compile(`for $m in //manager where $m/name return $m/name`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Pattern.N() != 2 {
		t.Fatalf("steps not shared: %s", c.Pattern)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		``,
		`return $x`,
		`for $m in //a`,                        // no return
		`for $m in //a return $q/name`,         // unbound var
		`for $m in //a, $m in //b return $m`,   // duplicate var
		`for $m in //a where return $m`,        // missing condition
		`for $m in //a order return $m`,        // missing by
		`for $m in //a return //b`,             // second absolute root conflicts
		`for $m in //a where $m/x = return $m`, // missing literal
		`for $m in //a return $m/`,             // dangling slash
		`for $m in //a where $m/x = 1 and $m/x = 2 return $m`, // conflicting predicates
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
}

func TestCompileSharedAbsoluteRoot(t *testing.T) {
	// Two absolute paths with the same root tag are allowed and share it.
	c, err := Compile(`for $a in //db/x, $b in //db/y return $a, $b`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Pattern.Nodes[0].Tag != "db" || c.Pattern.N() != 3 {
		t.Fatalf("pattern: %s", c.Pattern)
	}
}
