package xquery

import "testing"

// FuzzParseXQuery: Compile — lexer, parser and the translation to a tree
// pattern — never panics on arbitrary text, and what it accepts is a valid
// pattern whose variables and return nodes are nodes of it.
func FuzzParseXQuery(f *testing.F) {
	for _, s := range []string{
		`for $m in //manager return $m/name`,
		"for $a in //manager, $d in $a//manager\nwhere $a//employee/name and $d/department/name\nreturn $a/name",
		`for $e in //employee where $e/salary >= 50000 return $e/name`,
		`for $e in //employee where $e/name = "bob" return $e`,
		`for $m in //manager order by $m/name return $m`,
		`for $a in //db/x, $b in //db/y return $a, $b`,
		// The twig shape of the repository benchmark's plan_cold templates.
		`for $m in //manager, $n in $m//manager where $m/name and $m/employee/salary > 110000 and $m/department/name and $n/employee/name return $n/department`,
		// Rejected inputs.
		``, `return $x`, `for $m in //a`, `for $m in //a return $q/name`, `for $m in //a, $m in //b return $m`,
		`for $m in //a where return $m`, `for $m in //a order return $m`, `for $m in //a return //b`,
		`for $m in //a where $m/x = return $m`, `for $m in //a return $m/`, `for $m in //a where $m/x = 1 and $m/x = 2 return $m`,
		`for $m in //a where $m/x >`, // stops after the operator: once read past the end of the token list
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Compile(src)
		if err != nil {
			return
		}
		if err := c.Pattern.Validate(); err != nil {
			t.Fatalf("Compile(%q) produced an invalid pattern: %v", src, err)
		}
		for name, u := range c.Vars {
			if u < 0 || u >= c.Pattern.N() {
				t.Fatalf("Compile(%q): $%s bound to node %d of %d", src, name, u, c.Pattern.N())
			}
		}
		for _, u := range c.Return {
			if u < 0 || u >= c.Pattern.N() {
				t.Fatalf("Compile(%q): returns node %d of %d", src, u, c.Pattern.N())
			}
		}
	})
}
