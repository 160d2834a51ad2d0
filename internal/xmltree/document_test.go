package xmltree

import (
	"math/rand"
	"testing"
)

// buildSample constructs the small personnel tree used across this package's
// tests:
//
//	<db>
//	  <manager><name/><employee><name/></employee>
//	            <manager><department><name/></department></manager></manager>
//	  <employee><name/></employee>
//	</db>
func buildSample(t *testing.T) *Document {
	t.Helper()
	b := NewBuilder()
	b.Open("db", "")
	b.Open("manager", "alice")
	b.Leaf("name", "alice")
	b.Open("employee", "bob")
	b.Leaf("name", "bob")
	b.Close()
	b.Open("manager", "carol")
	b.Open("department", "tools")
	b.Leaf("name", "tools")
	b.Close()
	b.Close()
	b.Close()
	b.Open("employee", "dan")
	b.Leaf("name", "dan")
	b.Close()
	b.Close()
	d, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return d
}

func TestBuilderBasics(t *testing.T) {
	d := buildSample(t)
	if got, want := d.NumNodes(), 10; got != want {
		t.Fatalf("NumNodes = %d, want %d", got, want)
	}
	if d.Root() != 0 {
		t.Fatalf("Root = %d, want 0", d.Root())
	}
	if d.Level(d.Root()) != 0 {
		t.Fatalf("root level = %d", d.Level(d.Root()))
	}
	mgr, ok := d.LookupTag("manager")
	if !ok {
		t.Fatal("manager tag missing")
	}
	if got := d.TagCount(mgr); got != 2 {
		t.Fatalf("manager count = %d, want 2", got)
	}
	if _, ok := d.LookupTag("nosuch"); ok {
		t.Fatal("LookupTag found nonexistent tag")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	b.Open("a", "")
	if _, err := b.Finish(); err == nil {
		t.Fatal("Finish with open element should fail")
	}

	b = NewBuilder()
	b.Close()
	if _, err := b.Finish(); err == nil {
		t.Fatal("Close without Open should fail")
	}

	b = NewBuilder()
	b.Leaf("a", "")
	b.Leaf("b", "")
	if _, err := b.Finish(); err == nil {
		t.Fatal("two roots should fail")
	}

	b = NewBuilder()
	if _, err := b.Finish(); err == nil {
		t.Fatal("empty document should fail")
	}
}

func TestStructuralPredicates(t *testing.T) {
	d := buildSample(t)
	mgrs := d.NodesWithTag(mustTag(t, d, "manager"))
	names := d.NodesWithTag(mustTag(t, d, "name"))
	outer, inner := mgrs[0], mgrs[1]
	if !d.IsAncestor(outer, inner) {
		t.Error("outer manager should be ancestor of inner manager")
	}
	if d.IsAncestor(inner, outer) {
		t.Error("ancestor relation must be asymmetric")
	}
	if d.IsAncestor(outer, outer) {
		t.Error("ancestor relation must be irreflexive")
	}
	if !d.IsParent(d.Root(), outer) {
		t.Error("db should be parent of outer manager")
	}
	if d.IsParent(d.Root(), inner) {
		t.Error("db is grandparent, not parent, of inner manager")
	}
	// All name nodes under outer manager: alice, bob, tools.
	cnt := 0
	for _, nm := range names {
		if d.IsAncestor(outer, nm) {
			cnt++
		}
	}
	if cnt != 3 {
		t.Errorf("names under outer manager = %d, want 3", cnt)
	}
}

func TestChildren(t *testing.T) {
	d := buildSample(t)
	root := d.Root()
	kids := d.Children(root)
	if len(kids) != 2 {
		t.Fatalf("root has %d children, want 2", len(kids))
	}
	for _, k := range kids {
		if d.Parent(k) != root {
			t.Errorf("child %d has parent %d", k, d.Parent(k))
		}
	}
	leaf := d.NodesWithTag(mustTag(t, d, "name"))[0]
	if got := d.Children(leaf); len(got) != 0 {
		t.Errorf("leaf has children: %v", got)
	}
}

func mustTag(t *testing.T, d *Document, name string) TagID {
	t.Helper()
	id, ok := d.LookupTag(name)
	if !ok {
		t.Fatalf("tag %q not found", name)
	}
	return id
}

func TestRandomDocumentInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tags := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		d := RandomDocument(rng, n, tags)
		if d.NumNodes() != n {
			t.Fatalf("trial %d: NumNodes = %d, want %d", trial, d.NumNodes(), n)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Containment ⇔ interval containment (checked against parent chain).
		for i := 0; i < d.NumNodes(); i++ {
			id := NodeID(i)
			for p := d.Parent(id); p != InvalidNode; p = d.Parent(p) {
				if !d.IsAncestor(p, id) {
					t.Fatalf("trial %d: ancestor chain broken at %d->%d", trial, p, id)
				}
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := buildSample(t)
	lvl := d.level[3]
	d.level[3] = 99
	if err := d.Validate(); err == nil {
		t.Error("Validate missed corrupted level")
	}
	d.level[3] = lvl

	s := d.start[2]
	d.start[2] = d.start[1]
	if err := d.Validate(); err == nil {
		t.Error("Validate missed non-increasing start")
	}
	d.start[2] = s

	if err := d.Validate(); err != nil {
		t.Fatalf("restored document invalid: %v", err)
	}
}

// TestValidateNeedsPreorder: regions that nest and levels that add up are not
// enough — a node hung under an earlier sibling's subtree that the node
// before it already left is not a pre-order tree, and has no image.
func TestValidateNeedsPreorder(t *testing.T) {
	// Node 2 is a second child of the root whose region overlaps node 1's;
	// node 3 claims node 1 as its parent after node 2 closed it.
	d := &Document{
		start:  []Pos{0, 1, 2, 3},
		end:    []Pos{100, 50, 40, 30},
		level:  []uint16{0, 1, 1, 2},
		tag:    []TagID{0, 0, 0, 0},
		parent: []NodeID{InvalidNode, 0, 0, 1},
		value:  make([]string, 4),
		tags:   []string{"a"},
		byTag:  [][]NodeID{{0, 1, 2, 3}},
	}
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted nodes that are not in pre-order")
	}
	if img, err := AppendImage([]byte("kept"), d); err == nil || string(img) != "kept" {
		t.Errorf("AppendImage wrote %q, %v for nodes that are not in pre-order", img, err)
	}
	d.parent[3], d.end[3] = 2, 30
	if err := d.Validate(); err != nil {
		t.Fatalf("pre-order document invalid: %v", err)
	}
	if _, err := AppendImage(nil, d); err != nil {
		t.Fatal(err)
	}
}
