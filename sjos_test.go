package sjos

import (
	"context"
	"os"
	"reflect"
	"slices"
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
	res, err := db.QueryContext(context.Background(), "//manager//employee/name", methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	// employee names under managers: bob (x1 under alice), eve under
	// carol and alice -> bob, eve, eve: alice-bob, alice-eve, carol-eve.
	if res.Count != 3 {
		t.Fatalf("got %d matches, want 3", res.Count)
	}
	for _, m := range corpusMatches(res.Segments, res.Count) {
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
		res, err := db.QueryContext(context.Background(), src, methodOpts(m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if i == 0 {
			want = res.Count
			if want == 0 {
				t.Fatal("expected matches")
			}
			continue
		}
		if res.Count != want {
			t.Errorf("%v: %d matches, want %d", m, res.Count, want)
		}
	}
}

func TestQueryWithValuePredicate(t *testing.T) {
	db := openDB(t)
	res, err := db.QueryContext(context.Background(), `//employee[salary >= 40000]/name`, methodOpts(MethodFP))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Fatalf("got %d matches, want 1", res.Count)
	}
	if v := docValue(db, rowsOf(res.Segments)[0][2]); v != "bob" {
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
	good := mustOptimize(t, db, pat, MethodDPP)
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
	bq, errB := base.QueryContext(context.Background(), "//manager/employee", methodOpts(MethodFP))
	f, errF := folded.queryPattern(context.Background(), pat, methodOpts(MethodFP))
	if errB != nil || errF != nil {
		t.Fatal(errB, errF)
	}
	if f.Count != 4*bq.Count {
		t.Fatalf("folding x4: %d matches, base %d", f.Count, bq.Count)
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
	res, err := db.QueryContext(context.Background(), "//manager//employee/name", methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 {
		t.Fatalf("disk-backed query: %d matches, want 3", res.Count)
	}
}

// TestCorpusMethodSet pins the facade: the exported methods of *Corpus are
// exactly these. A change that adds or drops one edits this list.
func TestCorpusMethodSet(t *testing.T) {
	want := []string{
		"BadPlan", "Delete", "DocIDs", "Drain", "Explain", "ExplainAnalyze",
		"Health", "IngestEnabled", "IngestStats", "Insert", "InsertString",
		"Metrics", "NumDocs", "NumShards", "OptimizeContext",
		"OptimizeWithExactStats", "QueryContext", "RebuildStats", "Replace",
		"ReplaceString", "Run", "SetSlowQueryLog", "ShardOf", "SlowQueries",
		"TagName", "TraceDPP", "Value", "WriteMetrics", "XQueryContext",
	}
	typ := reflect.TypeFor[*Corpus]()
	var got []string
	for i := range typ.NumMethod() {
		got = append(got, typ.Method(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("*Corpus has %d exported methods:\n%v\nwant %d:\n%v", len(got), got, len(want), want)
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
	opt := mustOptimize(t, db, pat, MethodDPP)
	if opt.Cost <= 0 || opt.Plan == nil {
		t.Fatalf("optimize result: %+v", opt)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		res, err := db.Run(ctx, pat, opt.Plan, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 3 {
			t.Fatalf("execution %d: %d matches", i, len(res.Matches))
		}
		res, err = db.Run(ctx, pat, opt.Plan, QueryOptions{CountOnly: true})
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
	a, err := db.QueryContext(context.Background(), "//manager//employee/name", methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	b, err := db2.QueryContext(context.Background(), "//manager//employee/name", methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != b.Count {
		t.Fatalf("image query: %d matches, original %d", b.Count, a.Count)
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
				res, err := db.QueryContext(context.Background(), src, methodOpts(methods[(g+i)%len(methods)]))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if want == -1 {
					want = res.Count
				} else if res.Count != want {
					t.Errorf("goroutine %d: count changed %d -> %d", g, want, res.Count)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
