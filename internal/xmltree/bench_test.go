package xmltree

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkBuilder measures programmatic document construction.
func BenchmarkBuilder(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(1))
				RandomDocument(rng, n, []string{"a", "b", "c"})
			}
		})
	}
}

// BenchmarkFold measures the folding-factor replication used by the
// data-scaling experiment.
func BenchmarkFold(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	doc := RandomDocument(rng, 5000, []string{"a", "b", "c"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fold(doc, 10)
	}
}

// BenchmarkIsAncestor measures the O(1) structural predicate at the heart
// of every join.
func BenchmarkIsAncestor(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	doc := RandomDocument(rng, 100000, []string{"a", "b"})
	n := NodeID(doc.NumNodes() - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc.IsAncestor(0, n&NodeID(i|1))
	}
}
