package sjos

import (
	"context"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestXQueryBasic(t *testing.T) {
	c := openDB(t)
	res, err := c.XQueryContext(context.Background(), `for $m in //manager return $m/name`, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, row := range res.Rows {
		names = append(names, docValue(c, row.Nodes[0]))
	}
	sort.Strings(names)
	want := []string{"alice", "carol", "dan"}
	if len(names) != 3 || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Fatalf("names = %v, want %v", names, want)
	}
	if res.PlanText == "" || res.Pattern.N() != 2 {
		t.Fatalf("metadata: %+v", res)
	}
}

// TestXQueryRejectsCountOnly: an XQuery's rows are deduplicated from the
// pattern's matches, and a count-only run gathers none. It must fail naming
// the option, not answer zero rows (the query has three).
func TestXQueryRejectsCountOnly(t *testing.T) {
	opts := methodOpts(MethodDPP)
	opts.CountOnly = true
	_, err := openDB(t).XQueryContext(context.Background(), `for $m in //manager, $e in $m//employee return $e/name`, opts)
	if err == nil || !strings.Contains(err.Error(), "CountOnly") {
		t.Fatalf("count-only XQuery: err = %v, want an error naming CountOnly", err)
	}
}

func TestXQueryWhereIsExistential(t *testing.T) {
	c := openDB(t)
	// alice has two employees; FLWOR semantics must still return her
	// name once.
	res, err := c.XQueryContext(context.Background(), `for $m in //manager where $m//employee return $m/name`, methodOpts(MethodFP))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // alice and carol supervise employees; dan does not
		t.Fatalf("%d rows, want 2", len(res.Rows))
	}
}

func TestXQueryTwoVariables(t *testing.T) {
	c := openDB(t)
	res, err := c.XQueryContext(context.Background(), `
		for $m in //manager, $e in $m//employee
		return $m/name, $e/name`, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	// (alice,bob), (alice,eve), (carol,eve).
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.Nodes) != 2 {
			t.Fatalf("row width %d", len(row.Nodes))
		}
	}
}

func TestXQueryValuePredicate(t *testing.T) {
	c := openDB(t)
	res, err := c.XQueryContext(context.Background(), `
		for $e in //employee
		where $e/salary >= 40000
		return $e/name`, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || docValue(c, res.Rows[0].Nodes[0]) != "bob" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestXQueryOrderBy(t *testing.T) {
	c := openDB(t)
	res, err := c.XQueryContext(context.Background(), `for $m in //manager order by $m return $m/name`, methodOpts(MethodFP))
	if err != nil {
		t.Fatal(err)
	}
	// Document order of managers: alice, carol, dan.
	got := []string{}
	for _, row := range res.Rows {
		got = append(got, docValue(c, row.Nodes[0]))
	}
	if len(got) != 3 || got[0] != "alice" || got[1] != "carol" || got[2] != "dan" {
		t.Fatalf("ordered names = %v", got)
	}
}

func TestXQueryErrors(t *testing.T) {
	c := openDB(t)
	for _, src := range []string{
		``,
		`for $m in //manager`,
		`for $m in //manager return $x`,
	} {
		if _, err := c.XQueryContext(context.Background(), src, methodOpts(MethodDPP)); err == nil {
			t.Errorf("XQuery(%q) succeeded", src)
		}
	}
}

// TestXQueryKeepsDocuments: over two identical documents every row comes
// back twice, once per document, each carrying its DocID — node IDs are
// document-local, so a dedup key of node IDs alone would merge them. It holds
// whether both documents share a shard's forest or not.
func TestXQueryKeepsDocuments(t *testing.T) {
	const q = `for $m in //manager, $e in $m//employee return $m/name, $e/name`
	one, err := openDB(t).XQueryContext(context.Background(), q, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Rows) == 0 {
		t.Fatal("fixture query has no rows")
	}
	for _, shards := range []int{1, 2} {
		b := NewCorpusBuilder(&CorpusOptions{Shards: shards})
		b.AddXMLString("first", facadeXML)
		b.AddXMLString("second", facadeXML)
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.XQueryContext(context.Background(), q, methodOpts(MethodDPP))
		if err != nil {
			t.Fatal(err)
		}
		n := len(one.Rows)
		if len(res.Rows) != 2*n {
			t.Fatalf("%d shards: %d rows, want %d (the rows of both documents)", shards, len(res.Rows), 2*n)
		}
		for i, row := range res.Rows {
			wantID, wantDoc := "first", 0
			if i >= n {
				wantID, wantDoc = "second", 1
			}
			if row.DocID != wantID || row.Doc != wantDoc || !slices.Equal(row.Nodes, one.Rows[i%n].Nodes) {
				t.Fatalf("%d shards: row %d = %s/%d %v, want %s/%d %v",
					shards, i, row.DocID, row.Doc, row.Nodes, wantID, wantDoc, one.Rows[i%n].Nodes)
			}
		}
	}
}
