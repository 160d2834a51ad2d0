package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"sjos/internal/datagen"
	"sjos/internal/pattern"
	"sjos/internal/xmltree"
)

// BenchmarkBufferPoolHit measures the pinned-page fast path.
func BenchmarkBufferPoolHit(b *testing.B) {
	f := NewMemFile()
	var p Page
	SealPage(0, &p)
	if err := f.WritePage(0, &p); err != nil {
		b.Fatal(err)
	}
	bp := NewBufferPool(f, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bp.Get(0); err != nil {
			b.Fatal(err)
		}
		bp.Unpin(0, false)
	}
}

// BenchmarkBufferPoolMiss measures the eviction path: every Get replaces
// the single frame.
func BenchmarkBufferPoolMiss(b *testing.B) {
	f := NewMemFile()
	var p Page
	for i := 0; i < 2; i++ {
		SealPage(PageID(i), &p)
		if err := f.WritePage(PageID(i), &p); err != nil {
			b.Fatal(err)
		}
	}
	bp := NewBufferPool(f, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := PageID(i & 1)
		if _, err := bp.Get(id); err != nil {
			b.Fatal(err)
		}
		bp.Unpin(id, false)
	}
}

// BenchmarkTagScan measures a full index scan through the buffer pool —
// the physical work behind the cost model's f_I factor.
func BenchmarkTagScan(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	doc := xmltree.RandomDocument(rng, 100000, []string{"a", "b", "c"})
	st, err := BuildStore(doc, 0)
	if err != nil {
		b.Fatal(err)
	}
	tag, _ := doc.LookupTag("a")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := st.ScanTag(tag)
		for {
			_, _, ok, err := sc.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
	}
}

// BenchmarkBuildStore measures store construction (load-time cost).
func BenchmarkBuildStore(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	doc := xmltree.RandomDocument(rng, 100000, []string{"a", "b", "c"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildStore(doc, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchForest builds a forest store of n pers members (≈5k nodes and ≈3k
// distinct values each — the repo benchmark's document) and returns the
// forest, the spans and the store. The shard's distinct (tag, value) pairs
// grow with n; a member's do not.
func benchForest(b *testing.B, n int) (*xmltree.Document, []xmltree.DocSpan, *Store) {
	b.Helper()
	docs := make([]*xmltree.Document, n)
	for i := range docs {
		docs[i] = datagen.Pers(1, int64(1+i))
	}
	return buildForest(b, docs, 0)
}

// BenchmarkStageSegment is the per-document half of a write: one member's
// node pages, tag postings and value index serialised into page images.
func BenchmarkStageSegment(b *testing.B) {
	forest, spans, st := benchForest(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.StageSegment(forest, spans[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreVersion is the per-shard half of a write: assembling the
// successor version that adopts one staged segment, and the one that drops
// it again, with 2 and with 256 segments already live.
func BenchmarkStoreVersion(b *testing.B) {
	for _, live := range []int{2, 256} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			forest, _, st := benchForest(b, live)
			forest, span, err := xmltree.AppendMember(forest, datagen.Pers(1, 1000))
			if err != nil {
				b.Fatal(err)
			}
			stage, err := st.StageSegment(forest, span)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next := st.AdoptStage(stage)
				if _, err := next.DropSegment(forest, next.NumSegments()-1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkForestProbe is the read side of the store-version trade: an
// exact probe and a numeric range probe, resolved and drained, against 2
// and 256 live segments.
func BenchmarkForestProbe(b *testing.B) {
	for _, live := range []int{2, 256} {
		_, _, st := benchForest(b, live)
		for _, p := range []struct {
			name, tag string
			op        pattern.CmpOp
			val       string
		}{
			{"exact", "name", pattern.CmpEq, "mgr-0"},
			{"range", "salary", pattern.CmpGt, "110000"},
		} {
			b.Run(fmt.Sprintf("%s/live=%d", p.name, live), func(b *testing.B) {
				var ids [postingsBlockLen]xmltree.NodeID
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sc, ok := st.ProbeValue(p.tag, p.op, p.val)
					if !ok {
						b.Fatal("probe declined")
					}
					total := 0
					for {
						n, err := sc.NextBlock(ids[:])
						if err != nil {
							b.Fatal(err)
						}
						if n == 0 {
							break
						}
						total += n
					}
					if total == 0 {
						b.Fatal("probe found nothing")
					}
				}
			})
		}
	}
}

// BenchmarkDecodeBlock is the postings layer lane under every index scan:
// full blocks decoded from one page payload, ns per posting, with deltas
// that fit one byte (neighbouring nodes of a tag — nearly every delta of a
// real list) and deltas that take two.
func BenchmarkDecodeBlock(b *testing.B) {
	for _, lane := range []struct {
		name     string
		min, max int
	}{
		{"one-byte", 1, 127},
		{"two-byte", 128, 16383},
	} {
		b.Run(lane.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			var (
				payload []byte
				refs    []blockRef
				enc     [maxBlockBytes]byte
				ids     [postingsBlockLen]xmltree.NodeID
			)
			for len(payload)+maxBlockBytes <= PayloadSize {
				id := xmltree.NodeID(rng.Intn(1 << 20))
				for k := range ids {
					id += xmltree.NodeID(lane.min + rng.Intn(lane.max-lane.min+1))
					ids[k] = id
				}
				refs = append(refs, blockRef{off: uint16(len(payload)), n: postingsBlockLen})
				payload = append(payload, enc[:encodeBlock(enc[:], ids[:])]...)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := decodeBlock(payload, refs[i%len(refs)], ids[:]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*postingsBlockLen), "ns/posting")
		})
	}
}
