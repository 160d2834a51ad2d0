package xmltree_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/xml"
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"

	"sjos/internal/datagen"
	. "sjos/internal/xmltree"
)

// bindsPrefixToXMLNS reports the one input shape on which Parse knowingly
// departs from the oracle: encoding/xml rewrites an attribute's prefix to
// the namespace it is bound to before the old loop tested it against
// "xmlns", so binding a prefix to the namespace name "xmlns" made the old
// parser drop that prefix's attributes as if they were declarations. Parse
// drops declarations only (see TestParseKeepsAttributesOfOddNamespace).
func bindsPrefixToXMLNS(data []byte) bool {
	dec := xml.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.RawToken()
		if err != nil {
			return false
		}
		if se, ok := tok.(xml.StartElement); ok {
			for _, a := range se.Attr {
				if a.Name.Space == "xmlns" && a.Value == "xmlns" {
					return true
				}
			}
		}
	}
}

func imageOf(t testing.TB, d *Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteImage(d, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkAgainstReference is the differential property: whenever the oracle
// accepts, Parse accepts and builds the same document — image bytes and
// intern counters alike — and on input without multi-byte characters the
// two reject the same inputs too. (With them Parse accepts more: names are
// checked against XML 1.0 fifth edition's name characters, a superset of
// the fourth edition tables encoding/xml carries.)
func checkAgainstReference(t testing.TB, data []byte) {
	t.Helper()
	want, refErr := ReferenceParse(bytes.NewReader(data))
	got, err := Parse(bytes.NewReader(data))
	if refErr != nil {
		if err == nil && !bytes.ContainsFunc(data, func(r rune) bool { return r >= utf8.RuneSelf }) {
			t.Fatalf("Parse accepted %q, the reference parser rejects it: %v", data, refErr)
		}
		return
	}
	if bindsPrefixToXMLNS(data) {
		return
	}
	if err != nil {
		t.Fatalf("Parse rejected %q, the reference parser accepts it: %v", data, err)
	}
	if !bytes.Equal(imageOf(t, got), imageOf(t, want)) {
		t.Fatalf("Parse(%q) built a different document than the reference parser", data)
	}
	if got.InternStats() != want.InternStats() {
		t.Fatalf("Parse(%q) intern stats %+v, reference %+v", data, got.InternStats(), want.InternStats())
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("Parse(%q): %v", data, err)
	}
}

// parseSeeds are the differential test's fixed inputs and the fuzzer's
// starting corpus: every construct the parser has a rule for, well-formed
// and not.
func parseSeeds(t testing.TB) []string {
	t.Helper()
	seeds := []string{
		SampleXML,
		`<?xml version="1.0" encoding="UTF-8"?><!DOCTYPE r [<!ELEMENT r ANY><!-- c --> <!ENTITY e "v>">]><r/>`,
		`<?xml version="1.0" encoding="utf-8" standalone='yes'?>` + "\n<r> t </r>\n",
		`<r a="1" b='two' c = "x &amp; y &lt; &#65;&#x42;&quot;&apos;&gt;" d=""/>`,
		`<r>&lt;&amp;&gt;&apos;&quot; &#9;&#xA;&#13; &#x10FFFF; &#xD800;</r>`,
		`<r><![CDATA[ <raw> & ]] > ]]><a><![CDATA[]]></a><b>  <![CDATA[late]]></b></r>`,
		`<r>  <!-- blank first chunk -->second<!-- c -->third</r>`,
		`<r>head<a/>tail after a child is dropped</r>`,
		`<p:r xmlns:p="urn:p" xmlns="urn:d" p:a="1" xml:lang="en" a:xmlns="dropped"><p:c/><c p:xmlns="x"/></p:r>`,
		`<r xmlns:q="xmlns" q:kept="1"/>`,
		`<:r :a="1" b:="2"><a.b-c_d1/></:r>`,
		"<r a=\"l1\r\nl2\rl3\tl4\">t1\r\nt2\rt3</r>",
		`<r a="]]>">]] > ]&gt;</r>`,
		"<caf\u00e9 \u00e9t\u00e9=\"\u00fc\">\u00a0 nbsp trimmed \u2003</caf\u00e9>",
		`<r><?pi data ?><?pi?><?xml version="1.0"?></r><!-- after --> ` + "\n",
		`junk before <r/> junk after`,
		strings.Repeat("<d>", 300) + "x" + strings.Repeat("</d>", 300),
		`<r><a>1</a><a>1.0</a><a>1</a><a/><a></a><a> </a></r>`,
		// Not well-formed: the reference parser rejects each.
		``, `text only`, `<a>`, `<a><b></a></b>`, `<a></b>`, `</a>`, `<a/><b/>`, `<a></a><a></a>`,
		`<a`, `<a b`, `<a b=`, `<a b="`, `<a b="1`, `<a b=1/>`, `<a b/>`, `<a/ >`, `<a b="<"/>`,
		`<!-- unterminated`, `<a><!-- a -- b --></a>`, `<a><!--->`, `<a><![CDATA[x</a>`, `<a><![CDAT[x]]></a>`,
		`<a>&bogus;</a>`, `<a>&amp</a>`, `<a>&#;</a>`, `<a>&#x;</a>`, `<a>&#x110000;</a>`, `<a>&#0;</a>`, `<a b="&#1;"/>`,
		`<a>]]></a>`, "<a>\x00</a>", "<a>\xff</a>", "<a>\ufffe</a>", `<1a/>`, `<a:b:c/>`, `<a:b></a:c>`, `<a:b></b>`,
		`<?xml version="1.1"?><a/>`, `<?xml version="1.0" encoding="ISO-8859-1"?><a/>`, `<?xml version="1.0" encoding="utf-16"?><a/>`,
		`<? x?><a/>`, `<?x`, `<!DOCTYPE a [`, `<!DOCTYPE a "x>"`, `<!`, `<a></a`, `<a></a x>`, `<>`, `< a/>`,
	}
	for _, d := range []*Document{datagen.Pers(0.05, 1), datagen.DBLP(0.02, 2), datagen.Mbench(0.02, 3)} {
		s, err := SerializeString(d)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, s, s[:len(s)/2], s[:len(s)-1])
	}
	return seeds
}

func TestParseMatchesReference(t *testing.T) {
	for _, s := range parseSeeds(t) {
		checkAgainstReference(t, []byte(s))
	}
}

// FuzzParse holds Parse to the reference parser on arbitrary bytes; a panic
// or a hang fails the run by itself.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
	})
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "text only",
		"<a>", "<a><b></a></b>", "<a></b>", "</a>", "<a></a></a>", // unbalanced or mismatched tags
		"<a/><b/>", "<a></a><a></a>", // two roots
		"<a", "<a b=\"1\"", "<a></a", // unterminated tag
		"<a><!-- c", "<a><![CDATA[x", // unterminated comment, CDATA
		"<a>&bogus;</a>", "<a b=\"&nbsp;\"/>", // undefined entity
		`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`, `<?xml version="1.0" encoding="UTF-16"?><a/>`,
	} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", bad)
		}
		if _, err := ReferenceParse(strings.NewReader(bad)); err == nil {
			t.Errorf("reference parser accepts %q: not a must-reject input", bad)
		}
	}
}

// TestParseNameCharacters sweeps every BMP character through both name
// positions: in ASCII the two parsers agree exactly; beyond it Parse accepts
// whatever the reference parser does (encoding/xml's tables have no entry
// past U+FFFF).
func TestParseNameCharacters(t *testing.T) {
	for r := rune(1); r <= 0xFFFF; r++ {
		if !utf8.ValidRune(r) {
			continue
		}
		for _, src := range []string{"<" + string(r) + "/>", "<a" + string(r) + "/>"} {
			_, refErr := ReferenceParse(strings.NewReader(src))
			_, err := ParseString(src)
			if refErr == nil && err != nil {
				t.Fatalf("%q (%U): reference accepts, Parse rejects: %v", src, r, err)
			}
			if r < utf8.RuneSelf && (refErr == nil) != (err == nil) {
				t.Fatalf("%q: reference error %v, Parse error %v", src, refErr, err)
			}
		}
	}
}

// TestParseKeepsAttributesOfOddNamespace pins the one deliberate departure
// from the reference parser (see bindsPrefixToXMLNS).
func TestParseKeepsAttributesOfOddNamespace(t *testing.T) {
	d, err := ParseString(`<r xmlns:q="xmlns" q:kept="1"/>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.LookupTag("@kept"); !ok || d.NumNodes() != 2 {
		t.Fatalf("want the root and @kept, got %d nodes", d.NumNodes())
	}
}

// The repo benchmark's inputs are datagen.Pers documents serialised: they
// carry no attributes, so the attribute escaping fix must leave them as the
// parent commit wrote them, byte for byte.
func TestSerializePersUnchanged(t *testing.T) {
	const parentSHA256 = "4281cd8b45eef6051b1ef01a0902790ffbb1b569e1e172c7fcad7b367c492b52"
	s, err := SerializeString(datagen.Pers(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(s))); got != parentSHA256 {
		t.Fatalf("serialised pers document hashes to %s, the parent commit's to %s", got, parentSHA256)
	}
}

// BenchmarkParse is the XML text ingestion lane: one benchmark-sized pers
// document (≈105 KB, ≈5k elements), as a PUT delivers it.
func BenchmarkParse(b *testing.B) {
	text, err := SerializeString(datagen.Pers(1, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
