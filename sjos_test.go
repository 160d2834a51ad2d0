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

// openDB builds the paper's setup over facadeXML: a one-document corpus.
func openDB(t testing.TB) *Corpus {
	t.Helper()
	return xmlCorpus(t, facadeXML, nil)
}

func TestLoadAndQuery(t *testing.T) {
	db := openDB(t)
	if docNodes(db) == 0 {
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
		if m.DocID != docID || docTag(db, m.Nodes[0]) != "manager" || docTag(db, m.Nodes[2]) != "name" {
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
	if v := docValue(db, res.Matches[0].Nodes[2]); v != "bob" {
		t.Fatalf("matched %q", v)
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

// TestGenerateDatasetFacade holds AddDataset: every data set builds, an
// unknown name fails the build, and folding multiplies matches.
func TestGenerateDatasetFacade(t *testing.T) {
	for _, name := range []string{"mbench", "dblp", "pers"} {
		if docNodes(datasetCorpus(t, name, 0.05, 1, nil)) == 0 {
			t.Fatalf("%s: empty", name)
		}
	}
	b := NewCorpusBuilder(nil)
	b.AddDataset(docID, "nope", 1, 1, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	// Folding multiplies matches.
	base := datasetCorpus(t, "pers", 0.05, 1, nil)
	folded := datasetCorpus(t, "pers", 0.05, 4, nil)
	pat := MustParsePattern("//manager/employee")
	bq, errB := base.Query("//manager/employee", MethodFP)
	f, errF := folded.QueryPatternContext(context.Background(), pat, QueryOptions{ExecOptions: ExecOptions{Method: MethodFP}})
	if errB != nil || errF != nil {
		t.Fatal(errB, errF)
	}
	if len(f.Matches) != 4*len(bq.Matches) {
		t.Fatalf("folding x4: %d matches, base %d", len(f.Matches), len(bq.Matches))
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
	for _, src := range []string{"not xml", ""} {
		b := NewCorpusBuilder(nil)
		if err := b.AddXMLString(docID, src); err == nil {
			t.Fatalf("AddXMLString(%q) accepted", src)
		}
		if _, err := b.Build(); err == nil {
			t.Fatalf("Build after AddXMLString(%q) succeeded", src)
		}
	}
}

func TestDiskBackedDatabase(t *testing.T) {
	file, err := CreatePageFile(t.TempDir() + "/db.pages")
	if err != nil {
		t.Fatal(err)
	}
	db := xmlCorpus(t, facadeXML, &CorpusOptions{PoolFrames: 4, ShardPageFile: storeOn(file)})
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
	opts := QueryOptions{ExecOptions: ExecOptions{Method: MethodDPP}}
	a, err := db.QueryPatternContext(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.QueryPatternContext(context.Background(), m, opts)
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

func TestSaveAndAddImage(t *testing.T) {
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
	img, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close()
	ib := NewCorpusBuilder(nil)
	if err := ib.AddImage(docID, img); err != nil {
		t.Fatal(err)
	}
	db2, err := ib.Build()
	if err != nil {
		t.Fatal(err)
	}
	if docNodes(db2) != docNodes(db) {
		t.Fatalf("reloaded %d nodes, want %d", docNodes(db2), docNodes(db))
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
	if err := NewCorpusBuilder(nil).AddImage(docID, strings.NewReader("not an image")); err == nil {
		t.Fatal("garbage image accepted")
	}
}

// TestConcurrentQueries validates that one read-only one-document corpus
// serves parallel query traffic (immutable document, internally locked
// buffer pool). Run with -race.
func TestConcurrentQueries(t *testing.T) {
	db := datasetCorpus(t, "pers", 0.5, 1, nil)
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
