package sjos

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sjos/internal/datagen"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// updateWriteGolden rewrites testdata/write_golden.json and
// testdata/parent_wal.bin.gz from the code under test. Pass it only from a
// commit whose write path you trust: the files are the reference later
// commits' staged pages and log bytes are held to.
var updateWriteGolden = flag.Bool("update-write-golden", false, "rewrite the write-path golden files")

// writeGolden is what one replay of the fixed history leaves behind: the
// SHA-256 of every WAL file, page by page in order, and the write path's
// counters.
type writeGolden struct {
	WALSHA256 []string
	Stats     any
}

type writeGoldenFile struct {
	Database writeGolden
	Corpus   writeGolden
}

func hashPageFile(t testing.TB, f PageFile) string {
	t.Helper()
	h := sha256.New()
	var p storage.Page
	for i := 0; i < f.NumPages(); i++ {
		if err := f.ReadPage(storage.PageID(i), &p); err != nil {
			t.Fatal(err)
		}
		h.Write(p[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// persXML is the benchmark's document generator: datagen.Pers serialised.
func persXML(t testing.TB, seed int64) string {
	t.Helper()
	s, err := xmltree.SerializeString(datagen.Pers(1, seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// writer is the mutation surface Database and Corpus share.
type writer interface {
	InsertString(id, src string) error
	ReplaceString(id, src string) error
	Delete(id string) error
}

// replayWriteHistory runs the fixed history the golden file records: eight
// inserts, then the repo benchmark's churn_mixed write cycle (insert an
// extra document, replace doc-00 by another body, delete the extra, put
// doc-00's own body back) three times over.
func replayWriteHistory(t testing.TB, w writer) {
	t.Helper()
	const docs = 8
	for i := 0; i < docs; i++ {
		if err := w.InsertString(fmt.Sprintf("doc-%02d", i), persXML(t, 1+int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	extra, other, own := persXML(t, 1+docs), persXML(t, 2+docs), persXML(t, 1)
	for cycle := 0; cycle < 3; cycle++ {
		for _, err := range []error{
			w.InsertString("extra", extra),
			w.ReplaceString("doc-00", other),
			w.Delete("extra"),
			w.ReplaceString("doc-00", own),
		} {
			if err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
	}
}

// TestWriteGolden holds the write path to bytes recorded on the commit
// before the parser, the segment value index build and the store-version
// assembly were rewritten: the same history must leave the same WAL files —
// begin records (document images), staged page after-images and commit
// records alike — and the same counters, on a Database and on a 4-shard
// Corpus.
func TestWriteGolden(t *testing.T) {
	var got writeGoldenFile

	dbWAL := storage.NewMemFile()
	db, err := OpenDatabase(&Options{WALFile: dbWAL})
	if err != nil {
		t.Fatal(err)
	}
	replayWriteHistory(t, db)
	dst := db.IngestStats()
	if dst.Compactions == 0 {
		t.Fatal("history ran no compaction on the database")
	}
	got.Database = writeGolden{WALSHA256: []string{hashPageFile(t, dbWAL)}, Stats: dst}

	const shards = 4
	wals := newWALMap()
	c, err := NewCorpusBuilder(&CorpusOptions{Shards: shards, ShardWALFile: wals.file}).Build()
	if err != nil {
		t.Fatal(err)
	}
	replayWriteHistory(t, c)
	cst := c.IngestStats()
	if cst.Compactions == 0 {
		t.Fatal("history ran no compaction on the corpus")
	}
	got.Corpus.Stats = cst
	for s := 0; s < shards; s++ {
		got.Corpus.WALSHA256 = append(got.Corpus.WALSHA256, hashPageFile(t, wals.file(s)))
	}

	path := filepath.Join("testdata", "write_golden.json")
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if *updateWriteGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("write path diverged from the recorded bytes\n got: %s\nwant: %s", enc, want)
	}
}

// parentWALDocs is the history behind testdata/parent_wal.bin.gz: small
// documents whose values cover every shape the segment value index lays out
// — repeated values, byte-distinct spellings of one number, non-numeric and
// empty values, attributes — then a replace and a delete.
var parentWALDocs = []struct{ op, id, xml string }{
	{"insert", "a", `<r><n>1</n><n>1.0</n><n>01</n><n>7</n><n>-3</n><w k="x">alpha</w><w>beta</w><w>alpha</w><e/></r>`},
	{"insert", "b", `<r><n>2</n><n>x</n><n>2.50</n><n>2.5</n><m>3</m><m></m><w k="y">gamma</w></r>`},
	{"insert", "c", `<s><n>10</n><n>9</n><n>1e1</n><t a="1" b="1.0">t</t></s>`},
	{"replace", "a", `<r><n>5</n><n>5.0</n><w>delta</w></r>`},
	{"delete", "b", ""},
	{"insert", "d", `<r><n>1</n><w>alpha</w></r>`},
}

// TestRecoverParentWAL replays a log written by the parent commit. Recovery
// re-stages every logged document and byte-compares the pages it computes
// with the pages in the log (SegmentStage.VerifyStage), so this passes only
// while the parser-independent half of the write path — image decode, the
// segment's node pages, tag postings and value index — still lays a
// document out exactly as the commit that wrote the log did.
func TestRecoverParentWAL(t *testing.T) {
	path := filepath.Join("testdata", "parent_wal.bin.gz")
	if *updateWriteGolden {
		wal := storage.NewMemFile()
		db, err := OpenDatabase(&Options{WALFile: wal, CompactThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range parentWALDocs {
			switch m.op {
			case "insert":
				err = db.InsertString(m.id, m.xml)
			case "replace":
				err = db.ReplaceString(m.id, m.xml)
			case "delete":
				err = db.Delete(m.id)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var out bytes.Buffer
		zw := gzip.NewWriter(&out)
		var p storage.Page
		for i := 0; i < wal.NumPages(); i++ {
			if err := wal.ReadPage(storage.PageID(i), &p); err != nil {
				t.Fatal(err)
			}
			zw.Write(p[:])
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	zipped, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(zipped))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || len(raw)%storage.PageSize != 0 {
		t.Fatalf("parent log is %d bytes, not whole pages", len(raw))
	}
	wal := storage.NewMemFile()
	for i := 0; i*storage.PageSize < len(raw); i++ {
		var p storage.Page
		copy(p[:], raw[i*storage.PageSize:])
		if err := wal.WritePage(storage.PageID(i), &p); err != nil {
			t.Fatal(err)
		}
	}
	db, err := OpenDatabase(&Options{WALFile: wal, CompactThreshold: -1})
	if err != nil {
		t.Fatalf("recovering the parent commit's log: %v", err)
	}
	if got, want := db.MemberIDs(), []string{"c", "a", "d"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered members %v, want %v", got, want)
	}
	res, err := db.Query(`//r/n[. = 5]`, MethodDPP)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("n = 5 matched %d nodes after recovery, want 2 (both spellings)", len(res.Matches))
	}
}

// BenchmarkCorpusWriteCycle is the write path's end-to-end lane: the repo
// benchmark's churn_mixed write cycle — insert, replace, delete, replace,
// parse included — on its geometry: eight pers documents over four shards,
// every shard's WAL a disk file that is fsynced per commit.
func BenchmarkCorpusWriteCycle(b *testing.B) {
	dir := b.TempDir()
	var walErr error
	c, err := NewCorpusBuilder(&CorpusOptions{Shards: 4, ShardWALFile: func(shard int) PageFile {
		f, err := CreatePageFile(filepath.Join(dir, fmt.Sprintf("shard-%d.wal", shard)))
		if err != nil {
			walErr = err
		}
		return f
	}}).Build()
	if err != nil || walErr != nil {
		b.Fatal(err, walErr)
	}
	const docs = 8
	for i := 0; i < docs; i++ {
		if err := c.InsertString(fmt.Sprintf("doc-%02d", i), persXML(b, 1+int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	extra, other, own := persXML(b, 1+docs), persXML(b, 2+docs), persXML(b, 1)
	b.SetBytes(int64(len(extra) + len(other) + len(own)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
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
}
