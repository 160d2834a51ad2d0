package xmltree

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

const sampleXML = `<db>
  <manager id="1">alice
    <name>alice</name>
    <employee><name>bob</name></employee>
    <manager><department><name>tools</name></department></manager>
  </manager>
  <employee><name>dan</name></employee>
</db>`

func TestParseBasics(t *testing.T) {
	d, err := ParseString(sampleXML)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	mgr := mustTag(t, d, "manager")
	if got := d.TagCount(mgr); got != 2 {
		t.Errorf("manager count = %d, want 2", got)
	}
	// Attribute became a pseudo-element child.
	attr, ok := d.LookupTag("@id")
	if !ok {
		t.Fatal("@id pseudo-element missing")
	}
	a := d.NodesWithTag(attr)[0]
	if d.Value(a) != "1" {
		t.Errorf("@id value = %q, want 1", d.Value(a))
	}
	if d.Parent(a) != d.NodesWithTag(mgr)[0] {
		t.Error("@id not attached to manager")
	}
	// First text chunk captured as value.
	if v := d.Value(d.NodesWithTag(mgr)[0]); v != "alice" {
		t.Errorf("manager value = %q, want alice", v)
	}
}

// ReferenceParse and SampleXML hand the oracle and the sample document to
// the differential tests, which live in package xmltree_test because their
// seeds come from internal/datagen (it imports this package).
var ReferenceParse = referenceParse

const SampleXML = sampleXML

// referenceParse is the encoding/xml token loop Parse ran on before it
// became a byte scanner, kept verbatim as the differential oracle: whatever
// it accepts, Parse must accept with a byte-identical document.
func referenceParse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(bufio.NewReader(r))
	b := NewBuilder()
	depth := 0
	pendingText := InvalidNode // node awaiting its first text chunk
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			id := b.Open(t.Name.Local, "")
			pendingText = id
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				b.Leaf("@"+a.Name.Local, a.Value)
			}
			depth++
		case xml.EndElement:
			if depth == 0 {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end element %q", t.Name.Local)
			}
			b.Close()
			depth--
			pendingText = InvalidNode
		case xml.CharData:
			if pendingText != InvalidNode && b.doc.value[pendingText] == "" {
				if trimmed := bytes.TrimSpace(t); len(trimmed) != 0 {
					b.doc.value[pendingText] = b.InternValue(trimmed)
				}
			}
		}
	}
	return b.Finish()
}

func TestSerializeRoundTrip(t *testing.T) {
	d, err := ParseString(sampleXML)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	s, err := SerializeString(d)
	if err != nil {
		t.Fatalf("Serialize: %v", err)
	}
	d2, err := ParseString(s)
	if err != nil {
		t.Fatalf("reparse: %v\nserialized: %s", err, s)
	}
	if !structurallyEqual(d, d2) {
		t.Fatalf("round trip not structurally identical:\n%s", s)
	}
}

// structurallyEqual compares two documents node by node (tag names, levels,
// relative order, values).
func structurallyEqual(a, b *Document) bool {
	if a.NumNodes() != b.NumNodes() {
		return false
	}
	for i := 0; i < a.NumNodes(); i++ {
		ai, bi := NodeID(i), NodeID(i)
		if a.TagName(a.Tag(ai)) != b.TagName(b.Tag(bi)) ||
			a.Level(ai) != b.Level(bi) ||
			a.Value(ai) != b.Value(bi) {
			return false
		}
	}
	return true
}

// trickyValues are attribute values Go's %q renders differently from XML:
// Serialize wrote them with %q once, and none of them came back.
var trickyValues = []string{`a&b`, `x<y`, `say "hi"`, `a\b`, "tab\there", "line\nfeed", "cr\rhere", `it's`, `]]>`, ``, ` padded `}

func TestSerializeRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tags := []string{"alpha", "beta", "gamma"}
	f := func(seed int64, size uint8) bool {
		// A random tree, rebuilt with attribute pseudo-children ahead of the
		// real children of every node.
		shape := RandomDocument(rand.New(rand.NewSource(seed)), int(size%50)+1, tags)
		vrng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		for i := 0; i < shape.NumNodes(); i++ {
			n := NodeID(i)
			for b.Depth() > int(shape.Level(n)) {
				b.Close()
			}
			b.Open(shape.TagName(shape.Tag(n)), "")
			for k := vrng.Intn(3); k > 0; k-- {
				b.Leaf("@"+tags[vrng.Intn(len(tags))], trickyValues[vrng.Intn(len(trickyValues))])
			}
		}
		for b.Depth() > 0 {
			b.Close()
		}
		d := b.MustFinish()
		s, err := SerializeString(d)
		if err != nil {
			return false
		}
		d2, err := ParseString(s)
		if err != nil {
			return false
		}
		return structurallyEqual(d, d2)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSerializeEscaping(t *testing.T) {
	b := NewBuilder()
	b.Open("r", "a < b & c")
	b.Close()
	d := b.MustFinish()
	s, err := SerializeString(d)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(s, "a < b & c") {
		t.Fatalf("unescaped output: %s", s)
	}
	d2, err := ParseString(s)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if d2.Value(0) != "a < b & c" {
		t.Fatalf("value = %q", d2.Value(0))
	}

	// Attribute values: every tricky one comes back as it went in.
	b = NewBuilder()
	b.Open("r", "")
	for i, v := range trickyValues {
		b.Leaf(fmt.Sprintf("@k%d", i), v)
	}
	b.Close()
	d = b.MustFinish()
	if s, err = SerializeString(d); err != nil {
		t.Fatal(err)
	}
	if d2, err = ParseString(s); err != nil {
		t.Fatalf("reparse: %v\nserialized: %s", err, s)
	}
	for i, v := range trickyValues {
		if got := d2.Value(NodeID(1 + i)); got != v {
			t.Errorf("attribute %d: %q came back as %q\nserialized: %s", i, v, got, s)
		}
	}
}

func TestFold(t *testing.T) {
	d, err := ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	base := d.NumNodes()
	for _, k := range []int{1, 2, 5, 10} {
		f := Fold(d, k)
		if k == 1 {
			if f != d {
				t.Error("Fold(d,1) should return d unchanged")
			}
			continue
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("fold %d: %v", k, err)
		}
		if got, want := f.NumNodes(), base*k+1; got != want {
			t.Errorf("fold %d: NumNodes = %d, want %d", k, got, want)
		}
		mgr := mustTag(t, d, "manager")
		fm, ok := f.LookupTag("manager")
		if !ok {
			t.Fatalf("fold %d: manager tag lost", k)
		}
		if got, want := f.TagCount(fm), d.TagCount(mgr)*k; got != want {
			t.Errorf("fold %d: manager count = %d, want %d", k, got, want)
		}
	}
}

// TestFoldDisjoint verifies the key property §4.3 relies on: copies occupy
// disjoint ranges, so cross-copy containment never holds.
func TestFoldDisjoint(t *testing.T) {
	d, _ := ParseString(sampleXML)
	f := Fold(d, 3)
	roots := f.Children(f.Root())
	if len(roots) != 3 {
		t.Fatalf("fold root has %d children, want 3", len(roots))
	}
	for i := 0; i < len(roots); i++ {
		for j := 0; j < len(roots); j++ {
			if i != j && f.IsAncestor(roots[i], roots[j]) {
				t.Fatalf("copies %d and %d overlap", i, j)
			}
		}
	}
}
