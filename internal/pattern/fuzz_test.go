package pattern

import (
	"strings"
	"testing"
)

// FuzzParsePattern: Parse never panics on arbitrary text, and whatever it
// accepts is a valid pattern whose rendering parses back to the same
// fingerprint — the plan cache keys on Fingerprint and the slow-query log
// and every error message show String(), so the two must name one shape.
func FuzzParsePattern(f *testing.F) {
	for _, s := range []string{
		"//manager[.//employee/name]//department/name",
		`/db/item[@id = "42"]/price`,
		"//manager#[employee][department]",
		"//a[b][c]//d",
		`//price[. >= "99"]`,
		"//price[. >= 99]",
		"//item[@id]",
		`//a[b/c][.//d[. = "1"]]//e`,
		"//a[b][b][b/c][b/c]",
		`//article[year < 1980]/title`,
		`//employee[name="emp-7"]`,
		// Values the quoted form must escape to survive String → Parse: a
		// quote, a backslash, bytes that are not UTF-8.
		`//a[. = x"y]`, `//a[. = "x\\y\"z"]`, "0[0=\xff]",
		// Rejected inputs: the error paths must not panic either.
		"//", "//a[", "//a[]", "//a[. =]", `//a[. = "unterminated]`, "//a]b", "//a[. = 1][. = 2]", "//a bogus", "//a#/b#",
		// The repository benchmark's plan_cold twigs (12-13 nodes), at one bound.
		planColdTwig,
		strings.ReplaceAll(`//personnel//manager[department/name]//manager//manager[department/name]/manager[name]/employee[salary>$C]/name`, "$C", "110000"),
		strings.ReplaceAll(`//manager[employee/name][department/name][manager/name][manager/employee[salary>$C]/name]/name`, "$C", "110000"),
		strings.ReplaceAll(`//manager[employee[name][salary>$C]][department/name]/manager[employee[name]][department[name]]/manager/name`, "$C", "110000"),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted an invalid pattern: %v", src, err)
		}
		canon := p.String()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) renders as %q, which does not parse: %v", src, canon, err)
		}
		fp, _ := Fingerprint(p)
		if fp2, _ := Fingerprint(p2); fp2 != fp {
			t.Fatalf("Parse(%q) renders as %q, which parses to another shape:\n %s\n %s", src, canon, fp, fp2)
		}
	})
}
