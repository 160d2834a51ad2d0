package sjos

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sjos/internal/datagen"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// updateWriteGolden rewrites testdata/write_golden.json and
// testdata/digest_wal.bin.gz from the code under test. Pass it only from a
// commit whose write path you trust: the files are the reference later
// commits' staged pages and log bytes are held to. (testdata/parent_wal.bin.gz
// is not rewritten by anything: no code writes its format any more.)
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

// replayWriteHistory runs the fixed history the golden file records: eight
// inserts, then the repo benchmark's churn_mixed write cycle (insert an
// extra document, replace doc-00 by another body, delete the extra, put
// doc-00's own body back) three times over.
func replayWriteHistory(t testing.TB, c *Corpus) {
	t.Helper()
	const docs = 8
	for i := 0; i < docs; i++ {
		if err := c.InsertString(fmt.Sprintf("doc-%02d", i), persXML(t, 1+int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	extra, other, own := persXML(t, 1+docs), persXML(t, 2+docs), persXML(t, 1)
	for cycle := 0; cycle < 3; cycle++ {
		for _, err := range []error{
			c.InsertString("extra", extra),
			c.ReplaceString("doc-00", other),
			c.Delete("extra"),
			c.ReplaceString("doc-00", own),
		} {
			if err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
	}
}

// oneShardStats is the counter set of the golden file's "Database" entry,
// recorded when a writable Database still wrote that log; a one-shard corpus
// writes the same bytes and fills the same fields now.
type oneShardStats struct {
	Members         int
	DeadFraction    float64
	WALPages        int
	Compactions     int
	StatsVersion    uint64
	Broken          bool
	RecoveredTxns   int
	RecoverySeconds float64
}

// TestWriteGolden holds the write path to recorded bytes: the same history
// must leave the same WAL files — begin records (SJDOC2 document images),
// stage digests (so: the same staged pages) and commit records alike — and
// the same counters, on a one-shard Corpus (the "Database" entry, named for
// the facade that wrote the one-shard log when it was recorded) and on a
// 4-shard Corpus. The hashes were re-recorded when the log went from page
// after-images to stage digests; the counters other than WALPages are those
// of the commit before.
func TestWriteGolden(t *testing.T) {
	var got writeGoldenFile

	oneWAL := storage.NewMemFile()
	one, err := oneShardCorpus(oneWAL, 0)
	if err != nil {
		t.Fatal(err)
	}
	replayWriteHistory(t, one)
	ost := one.IngestStats()
	if ost.Compactions == 0 {
		t.Fatal("history ran no compaction on the one-shard corpus")
	}
	_, version := one.svc.snapshot()
	got.Database = writeGolden{WALSHA256: []string{hashPageFile(t, oneWAL)}, Stats: oneShardStats{
		Members:         ost.Docs,
		DeadFraction:    one.shards[0].meta().view().store.DeadFraction(),
		WALPages:        ost.WALPages,
		Compactions:     ost.Compactions,
		StatsVersion:    version,
		Broken:          ost.BrokenShards > 0,
		RecoveredTxns:   ost.RecoveredTxns,
		RecoverySeconds: ost.RecoverySeconds,
	}}

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

// walFixture reads a gzipped log from testdata into a fresh memory file.
func walFixture(t testing.TB, name string) *storage.MemFile {
	t.Helper()
	zipped, err := os.ReadFile(filepath.Join("testdata", name))
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
		t.Fatalf("%s is %d bytes, not whole pages", name, len(raw))
	}
	wal := storage.NewMemFile()
	for i := 0; i*storage.PageSize < len(raw); i++ {
		var p storage.Page
		copy(p[:], raw[i*storage.PageSize:])
		if err := wal.WritePage(storage.PageID(i), &p); err != nil {
			t.Fatal(err)
		}
	}
	return wal
}

// checkParentWALState is what the parentWALDocs history leaves behind.
func checkParentWALState(t testing.TB, c *Corpus) {
	t.Helper()
	if got, want := c.DocIDs(), []string{"c", "a", "d"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered members %v, want %v", got, want)
	}
	if n := countCorpus(t, c, `//r/n[. = 5]`); n != 2 {
		t.Fatalf("n = 5 matched %d nodes after recovery, want 2 (both spellings)", n)
	}
}

// walFormats reports what the transactions of a log that staged pages carry
// about them (page images, stage digests) and which image format their
// documents are in.
func walFormats(t testing.TB, wal PageFile) (pageImages, digests int, docMagics map[string]int) {
	t.Helper()
	docMagics = map[string]int{}
	if _, err := storage.ScanWAL(wal, func(tx storage.WALTxn) error {
		if tx.Images != nil {
			pageImages++
		}
		if tx.Digest != nil {
			digests++
		}
		for _, d := range tx.Docs {
			if len(d.Image) >= 6 {
				docMagics[string(d.Image[:6])]++
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return pageImages, digests, docMagics
}

// TestRecoverParentWAL replays a log written by the commit before stage
// digests and SJDOC2: its documents are SJDOC1 images and its transactions
// carry their staged pages in full. Recovery re-stages every logged document
// and byte-compares the pages it computes with the pages in the log
// (SegmentStage.VerifyStage), so this passes only while both formats stay
// readable and the parser-independent half of the write path — image decode,
// the segment's node pages, tag postings and value index — still lays a
// document out exactly as the commit that wrote the log did. The fixture is
// frozen: nothing writes that format now, so nothing can re-record it.
func TestRecoverParentWAL(t *testing.T) {
	wal := walFixture(t, "parent_wal.bin.gz")
	if images, digests, magics := walFormats(t, wal); images != 5 || digests != 0 || magics["SJDOC1"] != 5 || len(magics) != 1 {
		t.Fatalf("parent log has %d page-image transactions, %d digests, documents %v: not the SJDOC1 + page-image fixture", images, digests, magics)
	}
	c, err := oneShardCorpus(wal, -1)
	if err != nil {
		t.Fatalf("recovering the parent commit's log: %v", err)
	}
	checkParentWALState(t, c)
}

// TestRecoverDigestWAL replays the same history from a log recorded by the
// commit that introduced stage digests: SJDOC2 documents, one digest per
// staging transaction, no page image. It passes only while a document is
// still laid out on the same pages, byte for byte, as when the log was
// written — the digest is over those pages.
func TestRecoverDigestWAL(t *testing.T) {
	const name = "digest_wal.bin.gz"
	if *updateWriteGolden {
		wal := storage.NewMemFile()
		c, err := oneShardCorpus(wal, -1)
		if err != nil {
			t.Fatal(err)
		}
		applyParentWALDocs(t, c, parentWALDocs)
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
		if err := os.WriteFile(filepath.Join("testdata", name), out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wal := walFixture(t, name)
	if images, digests, magics := walFormats(t, wal); images != 0 || digests != 5 || magics["SJDOC2"] != 5 || len(magics) != 1 {
		t.Fatalf("digest log has %d page-image transactions, %d digests, documents %v: not the SJDOC2 + digest fixture", images, digests, magics)
	}
	c, err := oneShardCorpus(wal, -1)
	if err != nil {
		t.Fatalf("recovering the recorded digest log: %v", err)
	}
	checkParentWALState(t, c)
	if st := c.IngestStats(); st.RecoveredTxns != 1+len(parentWALDocs) || st.RecoverySeconds <= 0 {
		t.Fatalf("recovery replayed %d transactions in %v s, want the snapshot and %d mutations", st.RecoveredTxns, st.RecoverySeconds, len(parentWALDocs))
	}
}

func applyParentWALDocs(t testing.TB, c *Corpus, docs []struct{ op, id, xml string }) {
	t.Helper()
	for _, m := range docs {
		var err error
		switch m.op {
		case "insert":
			err = c.InsertString(m.id, m.xml)
		case "replace":
			err = c.ReplaceString(m.id, m.xml)
		case "delete":
			err = c.Delete(m.id)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestUpgradeInPlace: a log written in the old format is opened by this
// code, extended with transactions in the new one, and — after a crash —
// recovered whole: one file, page-image transactions first, digest
// transactions behind them, each verified its own way.
func TestUpgradeInPlace(t *testing.T) {
	wal := walFixture(t, "parent_wal.bin.gz")
	oldPages := wal.NumPages()
	c, err := oneShardCorpus(wal, -1)
	if err != nil {
		t.Fatal(err)
	}
	applyParentWALDocs(t, c, []struct{ op, id, xml string }{
		{"insert", "e", `<r><n>5</n><w>epsilon</w></r>`},
		{"replace", "c", `<s><n>5.00</n></s>`},
		{"delete", "d", ""},
	})
	if images, digests, magics := walFormats(t, wal); images != 5 || digests != 2 || magics["SJDOC1"] != 5 || magics["SJDOC2"] != 2 {
		t.Fatalf("upgraded log has %d page-image transactions, %d digests, documents %v", images, digests, magics)
	}
	var p storage.Page
	for i, old := 0, walFixture(t, "parent_wal.bin.gz"); i < oldPages; i++ {
		var q storage.Page
		if err := wal.ReadPage(storage.PageID(i), &p); err != nil {
			t.Fatal(err)
		}
		if err := old.ReadPage(storage.PageID(i), &q); err != nil {
			t.Fatal(err)
		}
		if p != q {
			t.Fatalf("appending to the old log rewrote its page %d", i)
		}
	}

	// Crash: nothing survives but the log.
	rec, err := oneShardCorpus(wal, -1)
	if err != nil {
		t.Fatalf("recovering the upgraded log: %v", err)
	}
	if got, want := rec.DocIDs(), []string{"a", "e", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered members %v, want %v", got, want)
	}
	for _, q := range []string{`//r/n[. = 5]`, `//s/n[. = 5]`, `//w`} {
		want, got := docRows(t, c, q), docRows(t, rec, q)
		if !reflect.DeepEqual(got, want) || len(got) == 0 {
			t.Fatalf("%s: recovered %v, before the crash %v", q, got, want)
		}
	}
}

// docRows runs q and renders its rows, in result order, as "docID [nodes]"
// strings (a row's Doc is its document's directory index, which recovery
// renumbers).
func docRows(t testing.TB, c *Corpus, q string) []string {
	t.Helper()
	res, err := c.QueryContext(context.Background(), q, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, res.Count)
	for i, m := range corpusMatches(res.Segments, res.Count) {
		rows[i] = fmt.Sprint(m.DocID, " ", m.Nodes)
	}
	return rows
}

// TestRecoverDigestMismatch: a logged document that is not the document the
// commit staged — one byte of one value differs, so the image still decodes
// and validates — must fail recovery with the stage mismatch, not come back
// as different data. The page is resealed after the flip: this is the fault
// a checksum cannot see, a log whose content and whose digest disagree. (The
// value is one of two equal ones: the digest is over the staged pages, which
// hold postings, so what it catches is a change that moves a posting — here
// one value's list becoming two — as the byte compare before it did.)
func TestRecoverDigestMismatch(t *testing.T) {
	wal := storage.NewMemFile()
	c, err := oneShardCorpus(wal, -1)
	if err != nil {
		t.Fatal(err)
	}
	applyParentWALDocs(t, c, parentWALDocs[:3])
	var p storage.Page
	flipped := false
	for i := 0; i < wal.NumPages() && !flipped; i++ {
		if err := wal.ReadPage(storage.PageID(i), &p); err != nil {
			t.Fatal(err)
		}
		if at := bytes.Index(p[:], []byte("alpha")); at >= 0 {
			p[at] = 'z' // document a's first <w> now says "zlpha"
			storage.SealPage(storage.PageID(i), &p)
			if err := wal.WritePage(storage.PageID(i), &p); err != nil {
				t.Fatal(err)
			}
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("value not found in the log")
	}
	_, err = oneShardCorpus(wal, -1)
	if !errors.Is(err, storage.ErrStageMismatch) {
		t.Fatalf("recovering a log whose document disagrees with its digest: %v, want ErrStageMismatch", err)
	}
	if !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("the error does not name the document: %v", err)
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
