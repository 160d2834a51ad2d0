package xmltree

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// appendAll appends docs to a fresh forest and returns it with the spans.
func appendAll(t *testing.T, docs []*Document) (*Document, []DocSpan) {
	t.Helper()
	f := NewForest()
	spans := make([]DocSpan, len(docs))
	for i, d := range docs {
		var err error
		if f, spans[i], err = AppendMember(f, d); err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	return f, spans
}

// TestMergeDocumentsStructure: members appended one by one merge into a
// single forest that keeps each member's structure under its span offset.
func TestMergeDocumentsStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tags := []string{"a", "b", "c", "d"}
	docs := []*Document{
		RandomDocument(rng, 37, tags),
		RandomDocument(rng, 1, tags),
		RandomDocument(rng, 120, tags[:2]),
	}
	f, spans := appendAll(t, docs)
	if err := f.Validate(); err != nil {
		t.Fatalf("forest fails validation: %v", err)
	}
	if !f.IsForest() {
		t.Fatal("an appended forest is no longer a forest")
	}
	wantNodes := 1
	for _, d := range docs {
		wantNodes += d.NumNodes()
	}
	if f.NumNodes() != wantNodes {
		t.Fatalf("forest NumNodes = %d, want %d", f.NumNodes(), wantNodes)
	}
	if f.TagName(f.Tag(0)) != MergedRootTag {
		t.Fatalf("node 0 tag = %q, want synthetic root", f.TagName(f.Tag(0)))
	}
	// Per-member structure preserved exactly under the span offset.
	for i, d := range docs {
		sp := spans[i]
		if sp.Nodes != d.NumNodes() {
			t.Fatalf("member %d span holds %d nodes, want %d", i, sp.Nodes, d.NumNodes())
		}
		for j := 0; j < d.NumNodes(); j++ {
			local, id := NodeID(j), sp.First+NodeID(j)
			if !sp.Contains(id) || id-sp.First != local {
				t.Fatalf("member %d node %d: span arithmetic broken", i, j)
			}
			if f.TagName(f.Tag(id)) != d.TagName(d.Tag(local)) {
				t.Fatalf("member %d node %d: tag mismatch", i, j)
			}
			if f.Value(id) != d.Value(local) {
				t.Fatalf("member %d node %d: value mismatch", i, j)
			}
			if f.Level(id) != d.Level(local)+1 {
				t.Fatalf("member %d node %d: level %d, want %d", i, j, f.Level(id), d.Level(local)+1)
			}
			wantParent := NodeID(0) // member root hangs off the synthetic root
			if p := d.Parent(local); p != InvalidNode {
				wantParent = p + sp.First
			}
			if f.Parent(id) != wantParent {
				t.Fatalf("member %d node %d: parent %d, want %d", i, j, f.Parent(id), wantParent)
			}
		}
	}
	// Structural joins never cross member boundaries: a member root is
	// never an ancestor of another member's node.
	for i := range docs {
		for j := range docs {
			if i != j && f.IsAncestor(spans[i].First, spans[j].First) {
				t.Fatalf("member %d root is ancestor of member %d root", i, j)
			}
		}
	}
}

// TestMergeSingleDocument: a lone member lands right after the synthetic root.
func TestMergeSingleDocument(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := RandomDocument(rng, 25, []string{"x", "y"})
	f, spans := appendAll(t, []*Document{d})
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if spans[0] != (DocSpan{First: 1, Nodes: 25}) {
		t.Fatalf("span = %+v, want {1 25}", spans[0])
	}
}

// Every refusal leaves the input forest as it was and usable.
func TestAppendMemberErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	good := RandomDocument(rng, 25, []string{"x", "y"})
	f, _ := appendAll(t, []*Document{good})

	if _, _, err := AppendMember(good, good); err == nil {
		t.Error("appending to a document that is not a forest must fail")
	}
	if _, _, err := AppendMember(f, nil); err == nil {
		t.Error("appending a nil member must fail")
	}
	if _, _, err := AppendMember(f, &Document{}); err == nil {
		t.Error("appending an empty member must fail")
	}
	b := NewBuilder()
	b.Open(MergedRootTag, "")
	b.Close()
	if _, _, err := AppendMember(f, b.MustFinish()); err == nil {
		t.Error("a member using the reserved root tag must fail")
	}
	if f.NumNodes() != 26 {
		t.Fatalf("refused appends changed the forest: %d nodes", f.NumNodes())
	}
	if _, span, err := AppendMember(f, good); err != nil || span.First != 26 {
		t.Fatalf("append after refusals: span %+v, err %v", span, err)
	}
}

// chain returns a document of n nested elements, levels 0 .. n-1.
func chain(n int) *Document {
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.Open("n", "")
	}
	for i := 0; i < n; i++ {
		b.Close()
	}
	return b.MustFinish()
}

// TestAppendMemberDepthOverflow: a member with a node already at the uint16
// level ceiling cannot be pushed one level deeper; wrapping the level to 0
// would corrupt level-sensitive execution. One level short of the ceiling
// still appends, landing exactly on it.
func TestAppendMemberDepthOverflow(t *testing.T) {
	shallow := RandomDocument(rand.New(rand.NewSource(1)), 10, []string{"a"})
	f, _ := appendAll(t, []*Document{shallow})
	_, _, err := AppendMember(f, chain(math.MaxUint16+1))
	var de *DepthOverflowError
	if !errors.As(err, &de) {
		t.Fatalf("AppendMember err = %v, want *DepthOverflowError", err)
	}
	if de.Depth != math.MaxUint16 {
		t.Fatalf("error detail = %+v, want depth %d", de, math.MaxUint16)
	}

	f, _, err = AppendMember(f, chain(math.MaxUint16))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Level(NodeID(f.NumNodes() - 1)); got != math.MaxUint16 {
		t.Fatalf("deepest appended level = %d, want %d", got, math.MaxUint16)
	}
}
