package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// benchDoc builds a deep random document sized for join micro-benchmarks.
func benchDoc(b *testing.B, n int) (*xmltree.Document, *storage.Store) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	doc := xmltree.RandomDocument(rng, n, []string{"a", "b", "c", "d"})
	st, err := storage.BuildStore(doc, 0)
	if err != nil {
		b.Fatal(err)
	}
	return doc, st
}

// joinShape is one input shape of the Stack-Tree layer lanes: a document and
// the edge joined over it.
type joinShape struct {
	name      string
	doc       *xmltree.Document
	st        *storage.Store
	anc, desc string
}

// joinShapes builds the shapes the repo benchmark's plans are made of, about
// 100k nodes each: dense (random nesting, most ancestors live); sparse-right
// (flat ancestors of which one in a hundred holds a descendant — the rest are
// dead on arrival, plan_cold's `employee` against `salary[>C]`); flat (every
// ancestor live, none nested: Anc buffers nothing); recursive (one tag, so
// ancestors nest in ancestors and every node is on both sides).
func joinShapes(b *testing.B) []joinShape {
	b.Helper()
	parse := func(body string) *xmltree.Document { return mustParseDoc(b, "<r>"+body+"</r>") }
	dense, _ := benchDoc(b, 100000)
	shapes := []joinShape{
		{name: "dense", doc: dense, anc: "a", desc: "b"},
		{name: "sparse-right", doc: parse(strings.Repeat(strings.Repeat("<a><c/></a>", 99)+"<a><b/></a>", 500)), anc: "a", desc: "b"},
		{name: "flat", doc: parse(strings.Repeat("<a><b/><b/><b/></a>", 25000)), anc: "a", desc: "b"},
		{name: "recursive", doc: xmltree.RandomDocument(rand.New(rand.NewSource(1)), 100000, []string{"a"}), anc: "a", desc: "a"},
	}
	for i := range shapes {
		st, err := storage.BuildStore(shapes[i].doc, 0)
		if err != nil {
			b.Fatal(err)
		}
		shapes[i].st = st
	}
	return shapes
}

// benchStackTree runs one join variant over every shape and both axes,
// reporting the time per input tuple (both inputs) beside ns/op.
func benchStackTree(b *testing.B, algo plan.Algo) {
	for _, sh := range joinShapes(b) {
		aTag, _ := sh.doc.LookupTag(sh.anc)
		dTag, _ := sh.doc.LookupTag(sh.desc)
		tuples := sh.doc.TagCount(aTag) + sh.doc.TagCount(dTag)
		for _, ax := range []pattern.Axis{pattern.Descendant, pattern.Child} {
			pat := edgePattern(sh.anc, sh.desc, ax)
			axis := "descendant" // not "//": a slash splits a -bench pattern
			if ax == pattern.Child {
				axis = "child"
			}
			b.Run(fmt.Sprintf("shape=%s/axis=%s", sh.name, axis), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					j, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pat.Nodes[0].Tag, ax, algo)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := Count(&Context{Doc: sh.doc, Store: sh.st}, j); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tuples), "ns/tuple")
			})
		}
	}
}

// BenchmarkStackTreeDesc measures the streaming Desc join on one edge.
func BenchmarkStackTreeDesc(b *testing.B) { benchStackTree(b, plan.AlgoDesc) }

// BenchmarkStackTreeAnc measures the buffering Anc variant on the same
// edges; the gap against Desc is what the cost model's f_IO term represents.
func BenchmarkStackTreeAnc(b *testing.B) { benchStackTree(b, plan.AlgoAnc) }

// BenchmarkSortOperator measures the blocking sort the optimizer's f_s term
// models.
func BenchmarkSortOperator(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		doc, st := benchDoc(b, n)
		pat := pattern.MustParse("//a//b")
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j, _ := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1),
					0, 1, pat.Nodes[0].Tag, pattern.Descendant, plan.AlgoDesc)
				s, err := NewSort(j, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Count(&Context{Doc: doc, Store: st}, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexScan measures leaf access through the buffer pool (f_I).
func BenchmarkIndexScan(b *testing.B) {
	doc, st := benchDoc(b, 100000)
	pat := pattern.MustParse("//a")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Count(&Context{Doc: doc, Store: st}, NewIndexScan(pat, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReferenceMatches quantifies how much slower the brute-force
// oracle is than a planned execution (it motivates having an optimizer at
// all).
func BenchmarkReferenceMatches(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	doc := xmltree.RandomDocument(rng, 400, []string{"a", "b", "c"})
	pat := pattern.MustParse("//a[b]//c")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReferenceMatches(doc, pat)
	}
}
