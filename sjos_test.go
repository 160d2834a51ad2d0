package sjos

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"

	"sjos/internal/xmltree"
)

const facadeXML = `<db>
  <manager><name>alice</name>
    <employee><name>bob</name><salary>50000</salary></employee>
    <manager><name>carol</name>
      <department><name>tools</name></department>
      <employee><name>eve</name></employee>
    </manager>
  </manager>
  <manager><name>dan</name><department><name>ops</name></department></manager>
</db>`

func openDB(t testing.TB) *Database {
	t.Helper()
	db, err := LoadXMLString(facadeXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestLoadAndQuery(t *testing.T) {
	db := openDB(t)
	if db.NumNodes() == 0 {
		t.Fatal("empty database")
	}
	res, err := db.Query("//manager//employee/name", MethodDPP)
	if err != nil {
		t.Fatal(err)
	}
	// employee names under managers: bob (x1 under alice), eve under
	// carol and alice -> bob, eve, eve: alice-bob, alice-eve, carol-eve.
	if len(res.Matches) != 3 {
		t.Fatalf("got %d matches, want 3", len(res.Matches))
	}
	for _, m := range res.Matches {
		if db.TagName(m[0]) != "manager" || db.TagName(m[2]) != "name" {
			t.Fatalf("match binds wrong tags: %v", m)
		}
	}
	if res.PlanText == "" || res.PlansConsidered == 0 || res.EstCost <= 0 {
		t.Errorf("missing result metadata: %+v", res)
	}
}

func TestQueryAllMethodsAgree(t *testing.T) {
	db := openDB(t)
	src := "//manager[.//employee/name]//department/name"
	var want int
	for i, m := range []Method{MethodDP, MethodDPP, MethodDPPNoLookahead, MethodDPAPEB, MethodDPAPLD, MethodFP} {
		res, err := db.Query(src, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if i == 0 {
			want = len(res.Matches)
			if want == 0 {
				t.Fatal("expected matches")
			}
			continue
		}
		if len(res.Matches) != want {
			t.Errorf("%v: %d matches, want %d", m, len(res.Matches), want)
		}
	}
}

func TestQueryWithValuePredicate(t *testing.T) {
	db := openDB(t)
	res, err := db.Query(`//employee[salary >= 40000]/name`, MethodFP)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("got %d matches, want 1", len(res.Matches))
	}
	if db.Value(res.Matches[0][2]) != "bob" {
		t.Fatalf("matched %q", db.Value(res.Matches[0][2]))
	}
}

func TestBadPlanFacade(t *testing.T) {
	db := openDB(t)
	pat := MustParsePattern("//manager//employee/name")
	bad, err := db.BadPlan(pat, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	good, err := db.Optimize(pat, MethodDPP, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Cost < good.Cost {
		t.Fatalf("bad plan cost %v < optimal %v", bad.Cost, good.Cost)
	}
	// Both must execute to the same result count.
	nb, _, err := execCount(db, pat, bad.Plan)
	if err != nil {
		t.Fatal(err)
	}
	ng, _, err := execCount(db, pat, good.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if nb != ng {
		t.Fatalf("bad plan found %d matches, good plan %d", nb, ng)
	}
}

func TestExplain(t *testing.T) {
	db := openDB(t)
	s, err := db.Explain(MustParsePattern("//manager[.//employee/name]//department/name"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DP:", "DPP:", "DPAP-EB:", "DPAP-LD:", "FP:", "fully-pipelined", "IndexScan"} {
		if !strings.Contains(s, want) {
			t.Errorf("Explain output missing %q", want)
		}
	}
}

func TestGenerateDatasetFacade(t *testing.T) {
	for _, name := range []string{"mbench", "dblp", "pers"} {
		db, err := GenerateDataset(name, 0.05, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if db.NumNodes() == 0 {
			t.Fatalf("%s: empty", name)
		}
	}
	if _, err := GenerateDataset("nope", 1, 1, nil); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	// Folding multiplies matches.
	base, err := GenerateDataset("pers", 0.05, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	folded, err := GenerateDataset("pers", 0.05, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	pat := MustParsePattern("//manager/employee")
	b, errB := base.Query("//manager/employee", MethodFP)
	f, errF := folded.QueryPattern(pat, MethodFP)
	if errB != nil || errF != nil {
		t.Fatal(errB, errF)
	}
	if len(f.Matches) != 4*len(b.Matches) {
		t.Fatalf("folding x4: %d matches, base %d", len(f.Matches), len(b.Matches))
	}
}

func TestParseMethodFacade(t *testing.T) {
	m, err := ParseMethod("FP")
	if err != nil || m != MethodFP {
		t.Fatalf("ParseMethod FP = %v, %v", m, err)
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Fatal("bogus method accepted")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadXMLString("not xml", nil); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadXMLString("", nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestDiskBackedDatabase(t *testing.T) {
	file, err := CreatePageFile(t.TempDir() + "/db.pages")
	if err != nil {
		t.Fatal(err)
	}
	db, err := LoadXMLString(facadeXML, &Options{PageFile: file, PoolFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	if file.NumPages() == 0 {
		t.Fatal("the store was not laid down on the page file")
	}
	res, err := db.Query("//manager//employee/name", MethodDPP)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 3 {
		t.Fatalf("disk-backed query: %d matches, want 3", len(res.Matches))
	}
}

func TestMinimizePatternFacade(t *testing.T) {
	p := MustParsePattern("//manager[employee][employee]")
	m, mapping := MinimizePattern(p)
	if m.N() != 2 {
		t.Fatalf("minimized to %d nodes", m.N())
	}
	if len(mapping) != 3 {
		t.Fatalf("mapping = %v", mapping)
	}
	db := openDB(t)
	a, err := db.QueryPattern(p, MethodDPP)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.QueryPattern(m, MethodDPP)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct projected matches agree (minimization collapses duplicate
	// branch bindings).
	if len(b.Matches) == 0 || len(b.Matches) > len(a.Matches) {
		t.Fatalf("original %d matches, minimized %d", len(a.Matches), len(b.Matches))
	}
}

func TestExplainAnalyze(t *testing.T) {
	db := openDB(t)
	s, err := db.ExplainAnalyze(MustParsePattern("//manager//employee/name"), MethodDPP)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"actual=", "est≈", "3 matches", "IndexScan"} {
		if !strings.Contains(s, want) {
			t.Errorf("ExplainAnalyze missing %q:\n%s", want, s)
		}
	}
}

// TestPreparedQueries holds the explicit form of a prepared query: a plan
// optimized once runs repeatedly, materialising or counting, to the same
// result.
func TestPreparedQueries(t *testing.T) {
	db := openDB(t)
	pat, err := ParsePattern("//manager//employee/name")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := db.Optimize(pat, MethodDPP, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cost <= 0 || opt.Plan == nil {
		t.Fatalf("optimize result: %+v", opt)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		res, err := db.Run(ctx, pat, opt.Plan, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 3 {
			t.Fatalf("execution %d: %d matches", i, len(res.Matches))
		}
		res, err = db.Run(ctx, pat, opt.Plan, RunOptions{CountOnly: true})
		if err != nil || res.Count != 3 {
			t.Fatalf("count %d: %d, %v", i, res.Count, err)
		}
	}
	if _, err := ParsePattern("///"); err == nil {
		t.Fatal("bad pattern accepted")
	}
}

func TestTraceDPPFacade(t *testing.T) {
	db := openDB(t)
	s, err := db.TraceDPP(MustParsePattern("//manager[employee]//department"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"search trace", "expand", "final", "chosen plan"} {
		if !strings.Contains(s, want) {
			t.Errorf("TraceDPP missing %q", want)
		}
	}
}

func TestSaveAndOpenImage(t *testing.T) {
	db := openDB(t)
	doc, err := xmltree.ParseString(facadeXML)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/db.img"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := xmltree.WriteImage(doc, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenImageFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if db2.NumNodes() != db.NumNodes() {
		t.Fatalf("reloaded %d nodes, want %d", db2.NumNodes(), db.NumNodes())
	}
	a, err := db.Query("//manager//employee/name", MethodDPP)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db2.Query("//manager//employee/name", MethodDPP)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Matches) != len(b.Matches) {
		t.Fatalf("image query: %d matches, original %d", len(b.Matches), len(a.Matches))
	}
	if _, err := OpenImageFile(t.TempDir()+"/missing.img", nil); err == nil {
		t.Fatal("missing image accepted")
	}
}

// TestConcurrentQueries validates that one Database serves parallel query
// traffic (immutable document, internally locked buffer pool). Run with
// -race.
func TestConcurrentQueries(t *testing.T) {
	db, err := GenerateDataset("pers", 0.5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"//manager//employee/name",
		"//manager[department]//employee",
		"//manager/department/name",
		"//employee[salary >= 60000]",
	}
	methods := []Method{MethodDP, MethodDPP, MethodDPAPEB, MethodFP}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := -1
			for i := 0; i < 10; i++ {
				src := queries[g%len(queries)]
				res, err := db.Query(src, methods[(g+i)%len(methods)])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if want == -1 {
					want = len(res.Matches)
				} else if len(res.Matches) != want {
					t.Errorf("goroutine %d: count changed %d -> %d", g, want, len(res.Matches))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
