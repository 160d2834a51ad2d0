package xmltree

import (
	"errors"
	"fmt"

	"sjos/internal/intern"
)

// Builder constructs a Document through nested Open/Close calls that mirror
// a depth-first walk of the tree. Positions, levels and parent links are
// assigned on the fly, so building is O(n).
//
//	b := xmltree.NewBuilder()
//	root := b.Open("db", "")
//	b.Open("item", "42")
//	b.Close() // item
//	b.Close() // db
//	doc, err := b.Finish()
type Builder struct {
	doc    *Document
	stack  []NodeID
	nextNo Pos
	err    error

	// vals interns node text values: XML data repeats values heavily, so
	// equal values share one backing string in the finished Document.
	vals *intern.Table
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		doc:  &Document{tagByNm: make(map[string]TagID)},
		vals: intern.New(),
	}
}

// InternValue canonicalises a text value through the builder's intern
// table. Open/OpenTag intern their value argument already; InternValue is
// for callers that patch values in after the fact (e.g. the XML parser's
// deferred text handling).
func (b *Builder) InternValue(v []byte) string { return b.vals.InternBytes(v) }

// reserve sizes an unused builder for about n nodes, for callers that can
// estimate their output (the XML parser counts tags): the node columns then
// fill without regrowing and carry no doubling slack into the finished
// Document, and the value table without rehashing (half the nodes carrying
// distinct values is generous for data, and costs a table build little).
func (b *Builder) reserve(n int) {
	if d := b.doc; n > 0 && len(d.start) == 0 {
		d.start, d.end = make([]Pos, 0, n), make([]Pos, 0, n)
		d.level, d.tag = make([]uint16, 0, n), make([]TagID, 0, n)
		d.parent, d.value = make([]NodeID, 0, n), make([]string, 0, n)
		b.vals = intern.NewSized(n / 2)
	}
}

// tagBytes is Tag for a name held in a byte slice: a name seen before costs
// no allocation.
func (b *Builder) tagBytes(name []byte) TagID {
	if t, ok := b.doc.tagByNm[string(name)]; ok {
		return t
	}
	return b.Tag(string(name))
}

// Tag interns a tag name, returning its TagID. Repeated calls with the same
// name return the same ID.
func (b *Builder) Tag(name string) TagID {
	if t, ok := b.doc.tagByNm[name]; ok {
		return t
	}
	t := TagID(len(b.doc.tags))
	b.doc.tags = append(b.doc.tags, name)
	b.doc.tagByNm[name] = t
	b.doc.byTag = append(b.doc.byTag, nil)
	return t
}

// Open starts a new element with the given tag name and optional text value,
// as a child of the currently open element (or as the root). It returns the
// new node's ID.
func (b *Builder) Open(tag, value string) NodeID {
	return b.OpenTag(b.Tag(tag), value)
}

// OpenTag is Open with a pre-interned TagID; useful in generator hot loops.
func (b *Builder) OpenTag(t TagID, value string) NodeID {
	return b.openNode(t, b.vals.Intern(value))
}

// openNode is OpenTag for a value that already went through the intern
// table (InternValue), or is empty.
func (b *Builder) openNode(t TagID, value string) NodeID {
	d := b.doc
	id := NodeID(len(d.start))
	if len(b.stack) == 0 && id != 0 {
		b.err = errors.New("xmltree: document must have a single root element")
	}
	parent := InvalidNode
	var lvl uint16
	if len(b.stack) > 0 {
		parent = b.stack[len(b.stack)-1]
		lvl = d.level[parent] + 1
	}
	d.start = append(d.start, b.nextNo)
	d.end = append(d.end, 0) // patched in Close
	d.level = append(d.level, lvl)
	d.tag = append(d.tag, t)
	d.parent = append(d.parent, parent)
	d.value = append(d.value, value)
	d.byTag[t] = append(d.byTag[t], id)
	b.nextNo++
	b.stack = append(b.stack, id)
	return id
}

// Close ends the most recently opened element.
func (b *Builder) Close() {
	if len(b.stack) == 0 {
		b.err = errors.New("xmltree: Close without matching Open")
		return
	}
	id := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	b.doc.end[id] = b.nextNo
	b.nextNo++
}

// Leaf is a convenience for Open immediately followed by Close.
func (b *Builder) Leaf(tag, value string) NodeID {
	id := b.Open(tag, value)
	b.Close()
	return id
}

// Depth returns the number of currently open elements.
func (b *Builder) Depth() int { return len(b.stack) }

// Finish validates balancing and returns the completed Document. The Builder
// must not be reused afterwards.
func (b *Builder) Finish() (*Document, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.stack) != 0 {
		return nil, fmt.Errorf("xmltree: %d elements left open", len(b.stack))
	}
	if b.doc.NumNodes() == 0 {
		return nil, errors.New("xmltree: empty document")
	}
	b.doc.intern = b.vals.Stats()
	b.doc.maxPos = b.doc.end[0]
	return b.doc, nil
}

// MustFinish is Finish that panics on error; for tests and generators whose
// construction logic is statically balanced.
func (b *Builder) MustFinish() *Document {
	d, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return d
}
