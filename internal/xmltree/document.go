package xmltree

import (
	"fmt"
	"sort"

	"sjos/internal/intern"
)

// NodeID identifies an element node within a Document. IDs are dense and
// assigned in document (pre-order) order, so sorting NodeIDs sorts by the
// nodes' Start positions.
type NodeID uint32

// InvalidNode is a sentinel NodeID that never refers to a real node.
const InvalidNode NodeID = ^NodeID(0)

// Pos is a position in the document's pre-order numbering.
type Pos uint32

// TagID is a dictionary-encoded element tag name.
type TagID uint32

// Document is an XML document stored column-wise. All per-node attributes
// live in parallel slices indexed by NodeID, which keeps the hot join loops
// cache-friendly and lets the storage layer persist nodes as fixed-width
// records.
//
// A Document is immutable once built (see Builder) and safe for concurrent
// readers.
type Document struct {
	start  []Pos
	end    []Pos
	level  []uint16
	tag    []TagID
	parent []NodeID // InvalidNode for the root
	value  []string // optional text/attribute payload, "" if none

	tags    []string         // TagID -> name
	tagByNm map[string]TagID // name -> TagID
	byTag   [][]NodeID       // TagID -> nodes in document order

	// maxPos is the largest position assigned in the document. It is kept
	// explicitly rather than derived from end[0] because an appendable
	// forest's root carries the forestRootEnd sentinel (see forest.go):
	// member appends must not rewrite the shared root record under
	// concurrent readers, so the root region is "everything" and the true
	// position high-water mark lives here.
	maxPos Pos

	intern intern.Stats // value intern-table behaviour during build
}

// InternStats reports the value intern table's behaviour during document
// construction: distinct values, hit/miss counts and bytes deduplicated.
func (d *Document) InternStats() intern.Stats { return d.intern }

// NumNodes returns the number of element nodes in the document.
func (d *Document) NumNodes() int { return len(d.start) }

// Start returns the pre-order start position of n.
func (d *Document) Start(n NodeID) Pos { return d.start[n] }

// End returns the region end position of n.
func (d *Document) End(n NodeID) Pos { return d.end[n] }

// Level returns the depth of n; the document root has level 0.
func (d *Document) Level(n NodeID) uint16 { return d.level[n] }

// Regions returns the start, end and level columns, indexed by NodeID, for
// loops that would otherwise pay a method call per lookup. They are the
// document's own slices: callers must not write to them.
func (d *Document) Regions() (start, end []Pos, level []uint16) {
	return d.start, d.end, d.level
}

// Links returns the parent and tag columns, indexed by NodeID, for loops
// that walk up the tree; as with Regions, they are the document's own
// slices and callers must not write to them.
func (d *Document) Links() (parent []NodeID, tag []TagID) {
	return d.parent, d.tag
}

// Tag returns the dictionary-encoded tag of n.
func (d *Document) Tag(n NodeID) TagID { return d.tag[n] }

// Parent returns the parent of n, or InvalidNode for the root.
func (d *Document) Parent(n NodeID) NodeID { return d.parent[n] }

// Value returns the text payload associated with n ("" if none).
func (d *Document) Value(n NodeID) string { return d.value[n] }

// TagName returns the string name for a TagID.
func (d *Document) TagName(t TagID) string { return d.tags[t] }

// NumTags returns the number of distinct element tags.
func (d *Document) NumTags() int { return len(d.tags) }

// LookupTag resolves a tag name to its TagID. The second result reports
// whether the tag occurs in the document.
func (d *Document) LookupTag(name string) (TagID, bool) {
	t, ok := d.tagByNm[name]
	return t, ok
}

// NodesWithTag returns all nodes with the given tag, in document order
// (nil for a tag that does not occur). The returned slice is shared and
// must not be modified.
func (d *Document) NodesWithTag(t TagID) []NodeID {
	if int(t) >= len(d.byTag) {
		return nil
	}
	return d.byTag[t]
}

// TagCount returns the number of nodes carrying tag t.
func (d *Document) TagCount(t TagID) int { return len(d.NodesWithTag(t)) }

// IsAncestor reports whether a is a proper ancestor of v.
func (d *Document) IsAncestor(a, v NodeID) bool {
	return d.start[a] < d.start[v] && d.end[v] < d.end[a]
}

// IsParent reports whether a is the parent of v.
func (d *Document) IsParent(a, v NodeID) bool {
	return d.IsAncestor(a, v) && d.level[a]+1 == d.level[v]
}

// Contains reports whether the region of a contains position p.
func (d *Document) Contains(a NodeID, p Pos) bool {
	return d.start[a] < p && p < d.end[a]
}

// Root returns the document root node. Documents built by Builder always
// have node 0 as the root.
func (d *Document) Root() NodeID { return 0 }

// Children returns the child nodes of n in document order. It runs in time
// proportional to the subtree size of n and is intended for tests, examples
// and tools, not for hot paths.
func (d *Document) Children(n NodeID) []NodeID {
	var out []NodeID
	for c := n + 1; int(c) < len(d.start) && d.start[c] < d.end[n]; c++ {
		if d.parent[c] == n {
			out = append(out, c)
		}
	}
	return out
}

// MaxPos returns the largest position assigned in the document; positions
// range over [0, MaxPos].
func (d *Document) MaxPos() Pos {
	if d.maxPos == 0 && len(d.end) > 0 && d.end[0] != forestRootEnd {
		// Documents assembled before the explicit field existed (or by
		// hand in tests) carry the high-water mark in the root's end.
		return d.end[0]
	}
	return d.maxPos
}

// Validate checks the structural invariants of the region encoding. It is
// used by tests and by the data generators as a self-check, and returns the
// first violation found.
func (d *Document) Validate() error {
	n := d.NumNodes()
	if n == 0 {
		return nil
	}
	// open[l] is the latest node at level l: a node's parent must be on the
	// open path of the node before it, or the nodes are not in pre-order.
	var open []NodeID
	for i := 0; i < n; i++ {
		id := NodeID(i)
		if d.start[id] >= d.end[id] {
			return fmt.Errorf("node %d: start %d >= end %d", id, d.start[id], d.end[id])
		}
		if i > 0 && d.start[id] <= d.start[id-1] {
			return fmt.Errorf("node %d: start positions not strictly increasing", id)
		}
		p := d.parent[id]
		if p == InvalidNode {
			if id != 0 {
				return fmt.Errorf("node %d: only the root may lack a parent", id)
			}
			if d.level[id] != 0 {
				return fmt.Errorf("root has level %d, want 0", d.level[id])
			}
			open = append(open, id)
			continue
		}
		if p >= id {
			return fmt.Errorf("node %d: parent %d does not precede it", id, p)
		}
		if !d.IsAncestor(p, id) {
			return fmt.Errorf("node %d: region not contained in parent %d", id, p)
		}
		lv := int(d.level[id])
		if int(d.level[p])+1 != lv {
			return fmt.Errorf("node %d: level %d, parent level %d", id, d.level[id], d.level[p])
		}
		if lv > len(open) || open[lv-1] != p {
			return fmt.Errorf("node %d: parent %d is not on the open path (nodes not in pre-order)", id, p)
		}
		open = append(open[:lv], id)
	}
	for t, nodes := range d.byTag {
		if !sort.SliceIsSorted(nodes, func(i, j int) bool { return nodes[i] < nodes[j] }) {
			return fmt.Errorf("tag %q: postings not sorted", d.tags[t])
		}
		for _, nd := range nodes {
			if d.tag[nd] != TagID(t) {
				return fmt.Errorf("tag %q: posting %d has tag %q", d.tags[t], nd, d.tags[d.tag[nd]])
			}
		}
	}
	return nil
}
