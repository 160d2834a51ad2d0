package exec

import (
	"fmt"
	"math/rand"
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

// BenchmarkStackTreeDesc measures the streaming Desc join on one edge.
func BenchmarkStackTreeDesc(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		doc, st := benchDoc(b, n)
		pat := pattern.MustParse("//a//b")
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1),
					0, 1, pattern.Descendant, plan.AlgoDesc)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Count(&Context{Doc: doc, Store: st}, j); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStackTreeAnc measures the buffering Anc variant on the same
// edge; the gap against Desc is what the cost model's f_IO term represents.
func BenchmarkStackTreeAnc(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		doc, st := benchDoc(b, n)
		pat := pattern.MustParse("//a//b")
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1),
					0, 1, pattern.Descendant, plan.AlgoAnc)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Count(&Context{Doc: doc, Store: st}, j); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSortOperator measures the blocking sort the optimizer's f_s term
// models.
func BenchmarkSortOperator(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		doc, st := benchDoc(b, n)
		pat := pattern.MustParse("//a//b")
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j, _ := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1),
					0, 1, pattern.Descendant, plan.AlgoDesc)
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
