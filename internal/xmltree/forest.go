package xmltree

import (
	"fmt"
	"math"

	"sjos/internal/intern"
)

// A forest is the per-shard layout of a multi-document collection: member
// documents hung under a synthetic root carrying MergedRootTag. Every member
// keeps its internal structure exactly: node IDs stay dense and in the
// member's pre-order (shifted by a per-member offset, reported as a DocSpan),
// positions shift uniformly, and levels shift by one (below the synthetic
// root). Because member regions are disjoint, no structural relationship —
// and therefore no pattern match — ever crosses a member boundary, and the
// synthetic root's tag never matches a query node; a query against the
// forest returns exactly the union of the per-member answers, in member
// order.

// MergedRootTag is the reserved tag of a forest's synthetic root. The NUL
// byte cannot appear in an XML element name, so the tag can never collide
// with a parsed document's tags and never matches a query pattern node.
const MergedRootTag = "\x00doc-forest"

// DocSpan locates one member document inside a forest: its nodes occupy the
// dense NodeID range [First, First+Nodes), in the member's own pre-order.
// Subtracting First converts a forest NodeID back into the member document's
// standalone numbering.
type DocSpan struct {
	First NodeID
	Nodes int
}

// Contains reports whether the forest node ID belongs to this member.
func (s DocSpan) Contains(id NodeID) bool {
	return id >= s.First && int(id-s.First) < s.Nodes
}

// DepthOverflowError reports a member that cannot be placed below the
// synthetic root: one of its nodes already sits at the uint16 level ceiling,
// so shifting every level by one would silently wrap to 0 and corrupt
// level-sensitive execution (child-axis joins, level predicates).
type DepthOverflowError struct {
	// Depth is the offending node's level in the member's own numbering.
	Depth int
}

func (e *DepthOverflowError) Error() string {
	return fmt.Sprintf("xmltree: AppendMember: member has a node at depth %d; appending it below the synthetic root would overflow the uint16 level", e.Depth)
}

// forestRootEnd is the region end of a forest's synthetic root. A forest
// grows: closing the root at the current high-water mark would force a
// rewrite of node 0's record on every append, racing concurrent readers of
// the shared column arrays and of the persisted root page. Instead the root's
// region is "everything" — the sentinel keeps containment trivially true for
// any member appended later — and the real position high-water mark lives in
// Document.maxPos.
const forestRootEnd = ^Pos(0)

// NewForest returns an empty appendable forest: just the synthetic root
// (MergedRootTag, level 0) with an open-ended region. Members are added with
// AppendMember; a forest with zero members matches no query pattern.
func NewForest() *Document {
	d := &Document{
		start:   []Pos{0},
		end:     []Pos{forestRootEnd},
		level:   []uint16{0},
		tag:     []TagID{0},
		parent:  []NodeID{InvalidNode},
		value:   []string{""},
		tagByNm: make(map[string]TagID),
	}
	rootTag := d.internTag(MergedRootTag)
	d.tag[0] = rootTag
	d.byTag[rootTag] = []NodeID{0}
	return d
}

// IsForest reports whether d is an appendable forest (built by NewForest /
// AppendMember) rather than a one-shot document.
func (d *Document) IsForest() bool {
	return len(d.end) > 0 && d.end[0] == forestRootEnd
}

// AppendMember returns a new forest version with member appended under the
// synthetic root, plus the span its nodes occupy. The input forest is not
// modified and stays valid: versions share backing arrays copy-on-write
// style (an append writes only indices past every older version's length),
// which makes a version swap O(columns) instead of O(nodes). The caller
// must serialize AppendMember calls and always append to the newest
// version — the ingestion layer's single-writer mutex guarantees both.
func AppendMember(f *Document, member *Document) (*Document, DocSpan, error) {
	if !f.IsForest() {
		return nil, DocSpan{}, fmt.Errorf("xmltree: AppendMember target is not a forest")
	}
	if member == nil || member.NumNodes() == 0 {
		return nil, DocSpan{}, fmt.Errorf("xmltree: AppendMember: member is empty")
	}
	if _, collides := member.LookupTag(MergedRootTag); collides {
		return nil, DocSpan{}, fmt.Errorf("xmltree: AppendMember: member uses the reserved root tag")
	}
	for _, lv := range member.level {
		if lv == math.MaxUint16 {
			return nil, DocSpan{}, &DepthOverflowError{Depth: int(lv)}
		}
	}

	n := member.NumNodes()
	nf := &Document{
		start:  f.start,
		end:    f.end,
		level:  f.level,
		tag:    f.tag,
		parent: f.parent,
		value:  f.value,
		tags:   f.tags,
		// The tag map and the postings outer slice are mutated per version
		// (interning, per-tag appends), so they are copied; the column
		// slices and inner postings only ever grow past older lengths.
		tagByNm: make(map[string]TagID, len(f.tagByNm)),
		byTag:   append([][]NodeID(nil), f.byTag...),
		maxPos:  f.maxPos,
		intern:  f.intern,
	}
	for name, t := range f.tagByNm {
		nf.tagByNm[name] = t
	}

	nodeOff := NodeID(len(f.start))
	posOff := f.maxPos + 1
	span := DocSpan{First: nodeOff, Nodes: n}

	remap := make([]TagID, member.NumTags())
	for t := 0; t < member.NumTags(); t++ {
		remap[t] = nf.internTag(member.TagName(TagID(t)))
	}
	for j := 0; j < n; j++ {
		id := NodeID(j)
		parent := NodeID(0) // member root hangs off the synthetic root
		if p := member.parent[id]; p != InvalidNode {
			parent = p + nodeOff
		}
		t := remap[member.tag[id]]
		nf.start = append(nf.start, member.start[id]+posOff)
		nf.end = append(nf.end, member.end[id]+posOff)
		nf.level = append(nf.level, member.level[id]+1)
		nf.tag = append(nf.tag, t)
		nf.parent = append(nf.parent, parent)
		nf.value = append(nf.value, member.value[id])
		nf.byTag[t] = append(nf.byTag[t], id+nodeOff)
	}
	nf.maxPos = posOff + member.MaxPos()

	is := member.InternStats()
	nf.intern = intern.Stats{
		Hits:       f.intern.Hits + is.Hits,
		Misses:     f.intern.Misses + is.Misses,
		Strings:    f.intern.Strings + is.Strings,
		BytesSaved: f.intern.BytesSaved + is.BytesSaved,
	}
	return nf, span, nil
}

// internTag adds a tag name to the forest's dictionary (or returns the
// existing ID).
func (d *Document) internTag(name string) TagID {
	if t, ok := d.tagByNm[name]; ok {
		return t
	}
	t := TagID(len(d.tags))
	d.tags = append(d.tags, name)
	d.tagByNm[name] = t
	d.byTag = append(d.byTag, nil)
	return t
}
