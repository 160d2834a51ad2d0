package sjos

import (
	"fmt"
	"path/filepath"
	"testing"
)

// BenchmarkCorpusRecover is recovery's end-to-end lane: a four-shard corpus
// is rebuilt from its disk WALs, once per iteration. The churn log is the
// repo benchmark's churn_mixed history — eight pers documents loaded, then
// thirty passes of its eight-write cycle (insert, replace, delete, replace,
// twice) — so
// most of its bytes lie before each shard's last snapshot; the fresh log
// holds the eight loads alone.
func BenchmarkCorpusRecover(b *testing.B) {
	for _, lane := range []struct {
		name   string
		cycles int
	}{{"churn", 2 * 30}, {"fresh", 0}} {
		b.Run(lane.name, func(b *testing.B) {
			const shards, docs = 4, 8
			dir := b.TempDir()
			path := func(shard int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d.wal", shard)) }
			var files []PageFile
			var fileErr error
			walFile := func(open func(string) (PageFile, error)) func(int) PageFile {
				return func(shard int) PageFile {
					f, err := open(path(shard))
					if err != nil {
						fileErr = err
					}
					files = append(files, f)
					return f
				}
			}
			closeFiles := func() {
				for _, f := range files {
					if c, ok := f.(interface{ Close() error }); ok {
						if err := c.Close(); err != nil {
							b.Fatal(err)
						}
					}
				}
				files = files[:0]
			}

			c, err := NewCorpusBuilder(&CorpusOptions{Shards: shards, ShardWALFile: walFile(CreatePageFile)}).Build()
			if err != nil || fileErr != nil {
				b.Fatal(err, fileErr)
			}
			userBytes := 0
			for i := 0; i < docs; i++ {
				xml := persXML(b, 1+int64(i))
				userBytes += len(xml)
				if err := c.InsertString(fmt.Sprintf("doc-%02d", i), xml); err != nil {
					b.Fatal(err)
				}
			}
			extra, other, own := persXML(b, 1+docs), persXML(b, 2+docs), persXML(b, 1)
			for cycle := 0; cycle < lane.cycles; cycle++ {
				for _, err := range []error{
					c.InsertString("extra", extra),
					c.ReplaceString("doc-00", other),
					c.Delete("extra"),
					c.ReplaceString("doc-00", own),
				} {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			want := c.DocIDs()
			closeFiles()

			b.SetBytes(int64(userBytes)) // the live documents a recovery brings back
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := NewCorpusBuilder(&CorpusOptions{Shards: shards, ShardWALFile: walFile(OpenPageFile)}).Build()
				if err != nil || fileErr != nil {
					b.Fatal(err, fileErr)
				}
				if got := c.DocIDs(); len(got) != len(want) {
					b.Fatalf("recovered %d documents, want %d", len(got), len(want))
				}
				b.StopTimer()
				closeFiles()
				b.StartTimer()
			}
		})
	}
}
