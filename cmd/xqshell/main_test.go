package main

import (
	"strings"
	"testing"

	"sjos"
)

func newShell(t *testing.T) (*shell, *strings.Builder) {
	t.Helper()
	b := sjos.NewCorpusBuilder(nil)
	b.AddXMLString("doc", `<db>
	  <manager><name>alice</name><employee><name>bob</name></employee></manager>
	  <manager><name>carol</name><department><name>ops</name></department></manager>
	</db>`)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	return &shell{c: c, method: sjos.MethodDPP, limit: 10, out: &out}, &out
}

func TestShellPatternQuery(t *testing.T) {
	sh, out := newShell(t)
	if !sh.processLine("//manager/name") {
		t.Fatal("query ended the session")
	}
	s := out.String()
	if !strings.Contains(s, "2 matches") || !strings.Contains(s, `"alice"`) {
		t.Fatalf("output:\n%s", s)
	}
}

func TestShellXQuery(t *testing.T) {
	sh, out := newShell(t)
	sh.processLine(`for $m in //manager where $m/employee return $m/name`)
	s := out.String()
	if !strings.Contains(s, "1 rows") || !strings.Contains(s, `"alice"`) {
		t.Fatalf("output:\n%s", s)
	}
}

func TestShellCommands(t *testing.T) {
	sh, out := newShell(t)
	if sh.processLine(".quit") {
		t.Fatal(".quit should end the session")
	}
	if !sh.processLine("") {
		t.Fatal("blank line should continue")
	}
	sh.processLine(".method FP")
	if sh.method != sjos.MethodFP {
		t.Fatal(".method did not switch")
	}
	sh.processLine(".method BOGUS")
	if !strings.Contains(out.String(), "error:") {
		t.Fatal("bad method not reported")
	}
	sh.processLine(".limit 1")
	if sh.limit != 1 {
		t.Fatal(".limit did not apply")
	}
	out.Reset()
	sh.processLine("//manager/name")
	if !strings.Contains(out.String(), "and 1 more") {
		t.Fatalf("limit not enforced:\n%s", out.String())
	}
	out.Reset()
	sh.processLine(".limit -3")
	sh.processLine(".nonsense")
	if !strings.Contains(out.String(), "error:") {
		t.Fatal("bad commands not reported")
	}
}

func TestShellInspectors(t *testing.T) {
	sh, out := newShell(t)
	sh.processLine(".explain //manager//name")
	if !strings.Contains(out.String(), "FP:") {
		t.Fatalf("explain output:\n%s", out.String())
	}
	out.Reset()
	sh.processLine(".analyze //manager//name")
	if !strings.Contains(out.String(), "actual=") {
		t.Fatalf("analyze output:\n%s", out.String())
	}
	out.Reset()
	sh.processLine(".trace //manager/name")
	if !strings.Contains(out.String(), "expand") {
		t.Fatalf("trace output:\n%s", out.String())
	}
	out.Reset()
	sh.processLine(".explain ///bad[")
	if !strings.Contains(out.String(), "error:") {
		t.Fatal("bad pattern not reported")
	}
}

func TestShellCacheCommand(t *testing.T) {
	sh, out := newShell(t)
	sh.processLine("//manager/name")
	out.Reset()
	sh.processLine("//manager/name")
	if !strings.Contains(out.String(), "cached plan") {
		t.Fatalf("repeat query not marked cached:\n%s", out.String())
	}
	out.Reset()
	sh.processLine(".cache")
	s := out.String()
	if !strings.Contains(s, "plan cache:") || !strings.Contains(s, "1 hits") {
		t.Fatalf(".cache output:\n%s", s)
	}
}

func TestShellQueryErrors(t *testing.T) {
	sh, out := newShell(t)
	sh.processLine("///bad")
	if !strings.Contains(out.String(), "error:") {
		t.Fatal("bad pattern not reported")
	}
	out.Reset()
	sh.processLine("for $x in")
	if !strings.Contains(out.String(), "error:") {
		t.Fatal("bad xquery not reported")
	}
}

func TestShellMetricsCommand(t *testing.T) {
	sh, out := newShell(t)
	sh.processLine("//manager/name")
	out.Reset()
	sh.processLine(".metrics")
	s := out.String()
	if !strings.Contains(s, "sjos_queries_total 1") || !strings.Contains(s, "sjos_pool_resident_pages") {
		t.Fatalf(".metrics output:\n%s", s)
	}
}

func TestShellSlowLogCommands(t *testing.T) {
	sh, out := newShell(t)
	sh.processLine(".slow")
	if !strings.Contains(out.String(), "slow-query log: empty") {
		t.Fatalf(".slow on empty log:\n%s", out.String())
	}
	out.Reset()
	sh.processLine(".slowlog 1ns")
	if !strings.Contains(out.String(), "threshold 1ns") {
		t.Fatalf(".slowlog output:\n%s", out.String())
	}
	sh.processLine("//manager/name")
	out.Reset()
	sh.processLine(".slow")
	s := out.String()
	if !strings.Contains(s, "manager/name") || !strings.Contains(s, "matches") {
		t.Fatalf(".slow output:\n%s", s)
	}
	if !strings.Contains(s, "IndexScan") {
		t.Fatalf(".slow output missing the operator trace:\n%s", s)
	}
	out.Reset()
	sh.processLine(".slowlog off")
	if !strings.Contains(out.String(), "slow-query log: off") {
		t.Fatalf(".slowlog off output:\n%s", out.String())
	}
	out.Reset()
	sh.processLine(".slowlog banana")
	if !strings.Contains(out.String(), "error:") {
		t.Fatalf("bad .slowlog not reported:\n%s", out.String())
	}
}
