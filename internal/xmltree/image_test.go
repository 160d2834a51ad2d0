package xmltree_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"sjos/internal/datagen"
	. "sjos/internal/xmltree"
)

// writeImageV1 is the SJDOC1 writer WriteImage was before SJDOC2, kept
// verbatim: images and logs in that format are still read, and this is what
// the tests make them with.
func writeImageV1(d *Document, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("SJDOC1\n\x00"); err != nil {
		return err
	}
	var u32 [4]byte
	writeU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		bw.Write(u32[:])
	}
	writeU32(uint32(d.NumNodes()))
	writeU32(uint32(d.NumTags()))
	var varint [binary.MaxVarintLen64]byte
	writeBytes := func(s string) {
		n := binary.PutUvarint(varint[:], uint64(len(s)))
		bw.Write(varint[:n])
		bw.WriteString(s)
	}
	for t := 0; t < d.NumTags(); t++ {
		writeBytes(d.TagName(TagID(t)))
	}
	var u16 [2]byte
	for i := 0; i < d.NumNodes(); i++ {
		id := NodeID(i)
		writeU32(uint32(d.Start(id)))
		writeU32(uint32(d.End(id)))
		binary.LittleEndian.PutUint16(u16[:], d.Level(id))
		bw.Write(u16[:])
		writeU32(uint32(d.Tag(id)))
		writeU32(uint32(d.Parent(id)))
	}
	for i := 0; i < d.NumNodes(); i++ {
		writeBytes(d.Value(NodeID(i)))
	}
	return bw.Flush()
}

// imageVersions is every format DecodeImage reads, by its writer.
var imageVersions = []struct {
	name  string
	write func(*Document, io.Writer) error
}{
	{"v1", writeImageV1},
	{"v2", WriteImage},
}

func imageIn(t testing.TB, write func(*Document, io.Writer) error, d *Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(d, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameDocument compares two documents column for column, dictionary and
// per-tag postings included.
func sameDocument(t testing.TB, got, want *Document) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumTags() != want.NumTags() {
		t.Fatalf("sizes differ: %d nodes %d tags, want %d nodes %d tags", got.NumNodes(), got.NumTags(), want.NumNodes(), want.NumTags())
	}
	if got.MaxPos() != want.MaxPos() || got.IsForest() != want.IsForest() {
		t.Fatalf("max position %d (forest %v), want %d (forest %v)", got.MaxPos(), got.IsForest(), want.MaxPos(), want.IsForest())
	}
	for i := 0; i < want.NumNodes(); i++ {
		id := NodeID(i)
		if got.Start(id) != want.Start(id) || got.End(id) != want.End(id) ||
			got.Level(id) != want.Level(id) || got.Parent(id) != want.Parent(id) ||
			got.Tag(id) != want.Tag(id) || got.Value(id) != want.Value(id) {
			t.Fatalf("node %d differs: [%d,%d] level %d parent %d tag %d value %q, want [%d,%d] level %d parent %d tag %d value %q", i,
				got.Start(id), got.End(id), got.Level(id), got.Parent(id), got.Tag(id), got.Value(id),
				want.Start(id), want.End(id), want.Level(id), want.Parent(id), want.Tag(id), want.Value(id))
		}
	}
	for tg := 0; tg < want.NumTags(); tg++ {
		if got.TagName(TagID(tg)) != want.TagName(TagID(tg)) {
			t.Fatalf("tag %d is %q, want %q", tg, got.TagName(TagID(tg)), want.TagName(TagID(tg)))
		}
		if id, ok := got.LookupTag(want.TagName(TagID(tg))); !ok || id != TagID(tg) {
			t.Fatalf("tag %q looks up as %d, %v", want.TagName(TagID(tg)), id, ok)
		}
		g, w := got.NodesWithTag(TagID(tg)), want.NodesWithTag(TagID(tg))
		if len(g) != len(w) {
			t.Fatalf("tag %d has %d postings, want %d", tg, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("tag %d posting %d is node %d, want %d", tg, i, g[i], w[i])
			}
		}
	}
}

// imageCases is the documents every format must carry exactly.
func imageCases(t testing.TB) map[string]*Document {
	t.Helper()
	parse := func(src string) *Document {
		d, err := ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cases := map[string]*Document{
		"single node":       parse(`<a/>`),
		"sample":            parse(SampleXML),
		"empty values":      parse(`<a><b></b><c k=""/><b>x</b><b/></a>`),
		"multi-byte values": parse(`<livre titre="Ça ira">日本語<b>ü</b><c>𝔘𝔫𝔦</c>ü</livre>`),
		"long value":        parse(`<a><b>` + string(bytes.Repeat([]byte("0123456789"), 40)) + `</b></a>`),
		"pers":              datagen.Pers(1, 1),
		"dblp":              datagen.DBLP(0.05, 3),
		"empty forest":      NewForest(),
	}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		cases[fmt.Sprintf("random %d", trial)] = RandomDocument(rng, 1+rng.Intn(300), []string{"a", "b", "c"})
	}
	forest := NewForest()
	for _, member := range []*Document{parse(SampleXML), parse(`<x><y>1</y></x>`), RandomDocument(rng, 40, []string{"p", "q"})} {
		var err error
		if forest, _, err = AppendMember(forest, member); err != nil {
			t.Fatal(err)
		}
	}
	cases["forest"] = forest
	return cases
}

func TestImageRoundTrip(t *testing.T) {
	for name, d := range imageCases(t) {
		for _, v := range imageVersions {
			got, err := ReadImage(bytes.NewReader(imageIn(t, v.write, d)))
			if err != nil {
				t.Fatalf("%s, %s: %v", name, v.name, err)
			}
			sameDocument(t, got, d)
		}
	}
}

// TestImageVersionsAgree: the same document read back from either format is
// the same document, and re-imaging what was read gives the same SJDOC2 bytes
// whichever format it was read from.
func TestImageVersionsAgree(t *testing.T) {
	for name, d := range imageCases(t) {
		v2 := imageIn(t, WriteImage, d)
		fromV1, err := DecodeImage(imageIn(t, writeImageV1, d))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fromV2, err := DecodeImage(v2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameDocument(t, fromV1, fromV2)
		for _, got := range []*Document{fromV1, fromV2} {
			if !bytes.Equal(imageIn(t, WriteImage, got), v2) {
				t.Fatalf("%s: re-imaging a decoded document changed its bytes", name)
			}
		}
	}
}

func TestImageWithValues(t *testing.T) {
	d, err := ParseString(`<db><item id="1">hello &amp; goodbye</item><item/></db>`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeImage(imageIn(t, WriteImage, d))
	if err != nil {
		t.Fatal(err)
	}
	item, _ := got.LookupTag("item")
	if got.Value(got.NodesWithTag(item)[0]) != "hello & goodbye" {
		t.Fatal("value lost")
	}
	attr, ok := got.LookupTag("@id")
	if !ok || got.TagCount(attr) != 1 {
		t.Fatal("attribute pseudo-element lost")
	}
}

func TestImageRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC________________"),
		append([]byte("SJDOC1\n\x00"), 0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0),         // absurd node count
		append([]byte("SJDOC2\n\x00"), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1),            // the same, as varints
		append([]byte("SJDOC2\n\x00"), 1, 1, 1, 'a', 0, 0, 0, 0, 0),                // a node whose region is empty
		append([]byte("SJDOC2\n\x00"), 2, 1, 1, 'a', 0, 9, 0, 0, 0, 1, 1, 1, 0, 0), // a second root
	}
	for i, b := range cases {
		if _, err := DecodeImage(b); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Every truncation of a valid image, and a valid image with a tail.
	d, _ := ParseString(`<a><b>v</b><b/></a>`)
	// SJDOC1 stores parents: one that points past the last node (found by
	// FuzzReadImage: validation indexed the columns with it).
	wild := imageIn(t, writeImageV1, d)
	binary.LittleEndian.PutUint32(wild[len(wild)-4-4:], 0x30303030) // the last node's parent field, before four value bytes
	if _, err := DecodeImage(wild); err == nil {
		t.Error("SJDOC1 image with an out-of-range parent accepted")
	}
	for _, v := range imageVersions {
		full := imageIn(t, v.write, d)
		for cut := 0; cut < len(full); cut++ {
			if _, err := DecodeImage(full[:cut]); err == nil {
				t.Errorf("%s: image truncated to %d of %d bytes accepted", v.name, cut, len(full))
			}
		}
		if _, err := DecodeImage(append(full[:len(full):len(full)], 0)); err == nil {
			t.Errorf("%s: image with a trailing byte accepted", v.name)
		}
	}
}

// TestImageCorruptionDetected: damage to a node's structure fields fails
// decoding or validation rather than loading a different tree.
func TestImageCorruptionDetected(t *testing.T) {
	d, _ := ParseString(`<a><b/><b/></a>`)
	raw := imageIn(t, WriteImage, d)
	// The last node record is (delta, length, closed, tag, value length):
	// closing more levels than are open, and an out-of-range tag.
	for _, at := range []int{len(raw) - 3, len(raw) - 2} {
		bad := bytes.Clone(raw)
		bad[at] = 0x7F
		if _, err := DecodeImage(bad); err == nil {
			t.Errorf("byte %d of %d damaged: image accepted", at, len(raw))
		}
	}
}

func TestImageSize(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	small := RandomDocument(rng, 1000, []string{"alpha", "beta"})
	big := RandomDocument(rng, 10000, []string{"alpha", "beta"})
	s, b := len(imageIn(t, WriteImage, small)), len(imageIn(t, WriteImage, big))
	// A handful of varint bytes per node; the ratio must track node count.
	if b < 8*s || b > 12*s {
		t.Errorf("image sizes %d / %d not ~linear in node count", s, b)
	}
	// The benchmark's document: under half the XML it was parsed from.
	pers := datagen.Pers(1, 1)
	xml, err := SerializeString(pers)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := len(imageIn(t, writeImageV1, pers)), len(imageIn(t, WriteImage, pers))
	t.Logf("pers seed 1: xml %d B, SJDOC1 %d B, SJDOC2 %d B (%.2fx the xml)", len(xml), v1, v2, float64(v2)/float64(len(xml)))
	if 2*v2 > len(xml) {
		t.Errorf("SJDOC2 image is %d B for %d B of XML: want at most half", v2, len(xml))
	}
}

// imageFuzzSeeds is both versions of a few documents, and truncations.
func imageFuzzSeeds(t testing.TB) [][]byte {
	sample, err := ParseString(SampleXML)
	if err != nil {
		t.Fatal(err)
	}
	var seeds [][]byte
	for _, d := range []*Document{sample, datagen.Pers(0.02, 1), datagen.DBLP(0.01, 2)} {
		for _, v := range imageVersions {
			img := imageIn(t, v.write, d)
			seeds = append(seeds, img, img[:len(img)/2], img[:len(img)-1], img[:9])
		}
	}
	return seeds
}

// checkDecodeImage is the decoder's property on arbitrary bytes: it never
// panics and sizes nothing by a count the bytes do not back (the fuzzer's
// memory limit is the judge of that); whatever it accepts is a valid
// document whose SJDOC2 image reads back as the same document and is stable
// under a second round trip.
func checkDecodeImage(t testing.TB, data []byte) {
	t.Helper()
	d, err := DecodeImage(data)
	if err != nil {
		return
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("accepted an invalid document: %v", err)
	}
	img, err := AppendImage(nil, d)
	if err != nil {
		t.Fatalf("accepted a document that has no image: %v", err)
	}
	again, err := DecodeImage(img)
	if err != nil {
		t.Fatalf("re-encoded image does not decode: %v", err)
	}
	sameDocument(t, again, d)
	if img2, err := AppendImage(nil, again); err != nil || !bytes.Equal(img2, img) {
		t.Fatalf("image is not stable under a round trip (%v)", err)
	}
}

func TestDecodeImageSeeds(t *testing.T) {
	for _, s := range imageFuzzSeeds(t) {
		checkDecodeImage(t, s)
	}
}

// FuzzReadImage feeds the image decoder arbitrary bytes.
func FuzzReadImage(f *testing.F) {
	for _, s := range imageFuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeImage(t, data)
	})
}

// BenchmarkImage is the document record's layer lane on one benchmark-sized
// pers document, throughput in bytes of the XML it stands for: encoding, and
// decoding either format (SJDOC1 is read-only, so it has no encode lane).
func BenchmarkImage(b *testing.B) {
	doc := datagen.Pers(1, 1)
	xml, err := SerializeString(doc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode/v2", func(b *testing.B) {
		b.SetBytes(int64(len(xml)))
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			if buf, err = AppendImage(buf[:0], doc); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(buf))/float64(len(xml)), "image-B/xml-B")
	})
	for _, v := range imageVersions {
		img := imageIn(b, v.write, doc)
		b.Run("decode/"+map[string]string{"v1": "v1-read", "v2": "v2"}[v.name], func(b *testing.B) {
			b.SetBytes(int64(len(xml)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeImage(img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
