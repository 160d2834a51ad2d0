package sjos

import (
	"context"
	"strings"
	"testing"

	"sjos/internal/exec"
	"sjos/internal/xmltree"
)

// Test-local conveniences over the one facade. The paper's single document
// is a one-document corpus: read-only, one shard, its only member stored
// under docID. The run helpers take such a corpus and return its rows as
// []Match, in the document's own node numbering; they keep the call sites of
// Run compact.

// docID is the member ID the one-document helpers store their document under.
const docID = "doc"

// docCorpus builds a read-only one-document corpus over doc.
func docCorpus(t testing.TB, doc *xmltree.Document, opts *CorpusOptions) *Corpus {
	t.Helper()
	b := NewCorpusBuilder(opts)
	b.add(docID, doc, nil)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// xmlCorpus is docCorpus over an XML string.
func xmlCorpus(t testing.TB, src string, opts *CorpusOptions) *Corpus {
	t.Helper()
	doc, err := xmltree.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return docCorpus(t, doc, opts)
}

// datasetCorpus is docCorpus over a generated data set (generator seed 0).
func datasetCorpus(t testing.TB, name string, scale float64, fold int, opts *CorpusOptions) *Corpus {
	t.Helper()
	b := NewCorpusBuilder(opts)
	b.AddDataset(docID, name, scale, fold, 0)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mustOptimize plans pat with m against c's statistics, failing the test on
// an error.
func mustOptimize(t testing.TB, c *Corpus, pat *Pattern, m Method) *OptimizeResult {
	t.Helper()
	res, err := c.OptimizeContext(context.Background(), pat, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// methodOpts is the QueryOptions that plan with m and change nothing else.
func methodOpts(m Method) QueryOptions { return QueryOptions{ExecOptions: ExecOptions{Method: m}} }

// storeOn puts every replica store of a corpus on f.
func storeOn(f PageFile) func(shard, replica int) PageFile {
	return func(int, int) PageFile { return f }
}

// rowsOf is a one-document result's rows as []Match: the rows of its
// segment, if any, already in the document's own numbering.
func rowsOf(segs []DocSegment) []Match {
	if len(segs) == 0 {
		return []Match{}
	}
	return segs[0].rows.Tuples()
}

// docSnap returns the current snapshot of the shard holding the document and
// the document's span inside its forest.
func docSnap(c *Corpus) (*dbSnap, xmltree.DocSpan) {
	sn := c.shards[c.view().byID[docID]].meta().view()
	return sn, sn.members[sn.memberIdx[docID]].span
}

// docNodes returns the document's element node count.
func docNodes(c *Corpus) int {
	_, span := docSnap(c)
	return span.Nodes
}

// docTag and docValue label a node of the document.
func docTag(c *Corpus, id NodeID) string {
	tag, _ := c.TagName(docID, id)
	return tag
}

func docValue(c *Corpus, id NodeID) string {
	v, _ := c.Value(docID, id)
	return v
}

func execAll(c *Corpus, pat *Pattern, p *Plan) ([]Match, ExecStats, error) {
	res, err := c.Run(context.Background(), pat, p, QueryOptions{})
	if err != nil {
		return nil, ExecStats{}, err
	}
	return rowsOf(res.Segments), res.Stats, nil
}

func execCount(c *Corpus, pat *Pattern, p *Plan) (int, ExecStats, error) {
	res, err := c.Run(context.Background(), pat, p, QueryOptions{CountOnly: true})
	if err != nil {
		return 0, ExecStats{}, err
	}
	return res.Count, res.Stats, nil
}

// ScanArm returns a copy of p with every value-index probe leaf turned back
// into a tag scan + filter: the same join order, only the access path
// differs. Exported for the black-box benchmarks.
func ScanArm(p *Plan) *Plan {
	if p == nil {
		return nil
	}
	cp := *p
	cp.ValueIndex = false
	cp.Left, cp.Right = ScanArm(p.Left), ScanArm(p.Right)
	return &cp
}

// referenceMatches is the oracle of the differential suites: the brute-force
// matcher over the one-document corpus's current document, which shares no
// code with the planner or the executor. It runs on the forest the document
// is stored in (no pattern node matches the synthetic root) and rebases
// every binding into the document's own numbering.
func referenceMatches(c *Corpus, pat *Pattern) []Match {
	sn, span := docSnap(c)
	ms := exec.ReferenceMatches(sn.doc, pat)
	for _, m := range ms {
		for u := range m {
			m[u] -= span.First
		}
	}
	return ms
}
