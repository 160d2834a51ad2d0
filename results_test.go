package sjos

import (
	"context"
	"fmt"
	"testing"
)

const resultsXML = `<db>
  <team><name>alpha</name>
    <member><name>ann</name><skill>go</skill><level>3</level></member>
    <member><name>bob</name><skill>sql</skill><level>5</level></member>
  </team>
  <team><name>beta</name>
    <member><name>cat</name><skill>go</skill><level>4</level></member>
  </team>
  <mentor><name>ann</name></mentor>
</db>`

// TestRenderMatch renders matches the way the CLIs print a row: one
// AppendCell per pattern node, tag#id for a node without text and
// tag="value" otherwise, quoted exactly as %q quotes.
func TestRenderMatch(t *testing.T) {
	c := xmlCorpus(t, resultsXML, nil)
	pat := MustParsePattern("//team[name]//member/name")
	res, err := c.queryPattern(context.Background(), pat, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 {
		t.Fatalf("%d matches, want 3", res.Count)
	}
	for _, m := range corpusMatches(res.Segments, res.Count) {
		var got, want []byte
		for u, id := range m.Nodes {
			got = AppendCell(got, pat.Nodes[u].Tag, docValue(c, id), id)
			if v := docValue(c, id); v != "" {
				want = fmt.Appendf(want, "%s=%q", pat.Nodes[u].Tag, v)
			} else {
				want = fmt.Appendf(want, "%s#%d", pat.Nodes[u].Tag, id)
			}
		}
		if string(got) != string(want) {
			t.Errorf("row %q, want %q", got, want)
		}
	}
	for _, v := range []string{"plain", `say "hi"`, `back\slash`, "tab\tnew\nline", "é", "\x7f"} {
		if got, want := string(AppendCell(nil, "v", v, 7)), fmt.Sprintf("v=%q", v); got != want {
			t.Errorf("AppendCell(%q) = %s, want %s", v, got, want)
		}
	}
}

// TestEvalPredicateFacade holds the value-predicate semantics a pattern
// carries: a numeric comparison when both sides parse as numbers, so 9 >= 10
// fails although it holds between strings, and a string comparison
// otherwise, so "abc" >= "10" holds.
func TestEvalPredicateFacade(t *testing.T) {
	c := xmlCorpus(t, `<r><x>11</x><x>9</x><x>100</x><x>abc</x></r>`, nil)
	for _, m := range []Method{MethodDPP, MethodGreedy} {
		res, err := c.QueryContext(context.Background(), `//r/x[. >= 10]`, methodOpts(m))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, match := range corpusMatches(res.Segments, res.Count) {
			got = append(got, docValue(c, match.Nodes[1]))
		}
		if fmt.Sprint(got) != "[11 100 abc]" {
			t.Errorf("%v: x >= 10 matched %q, want [11 100 abc]", m, got)
		}
	}
}
