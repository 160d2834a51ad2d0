package main

import (
	"strings"
	"testing"

	"sjos"
	"sjos/internal/datagen"
	"sjos/internal/exec"
)

// The counting oracle must agree with the enumerating one the repository's
// own tests trust, on every shape of query the benchmark sends.
func TestMatchCountEqualsReferenceMatches(t *testing.T) {
	doc := datagen.Pers(0.2, 42) // ≈1k nodes: Q.Pers.3.d stays in the thousands
	queries := []string{
		qPers1a, qPers2c, qPers3d, qPers4d, rootQuery, churnTwig,
		`//manager/name`, `//employee[salary>118000]/name`, `//employee[name="emp-4"]`,
		`//manager[name="mgr-0"]//employee/name`, `//nosuchtag/name`,
	}
	for _, tmpl := range planColdTemplates {
		queries = append(queries, strings.ReplaceAll(tmpl, "$C", "60000"))
	}
	for _, q := range queries {
		pat, err := sjos.ParsePattern(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want := uint64(len(exec.ReferenceMatches(doc, pat)))
		if got := matchCount(doc, pat); got != want {
			t.Errorf("%s: matchCount = %d, ReferenceMatches finds %d", q, got, want)
		}
	}
}

func TestRowsByNameEqualsProbe(t *testing.T) {
	d, err := genDocument("d", 7)
	if err != nil {
		t.Fatal(err)
	}
	docs := []*document{d}
	rows, err := rowsByName(docs, `//manager[name]//employee/name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no manager has employees")
	}
	checked := 0
	for v, n := range rows {
		e, err := expect(docs, `//manager[name="`+v+`"]//employee/name`)
		if err != nil {
			t.Fatal(err)
		}
		if e.total != n {
			t.Errorf("name %q: rowsByName says %d, the probe returns %d", v, n, e.total)
		}
		if checked++; checked == 25 {
			break
		}
	}
}
