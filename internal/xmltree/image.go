package xmltree

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// Binary document images: a versioned serialisation of a Document — what a
// database saves and loads, and what the write-ahead log carries for every
// document it commits. An image stores the tree, not the labelling: a node's
// parent and level are functions of the pre-order, and its region is two
// near-dense counters, so a node costs a handful of varint bytes and the
// reader rebuilds the columns with a stack of open nodes.
//
// SJDOC2 layout (every integer a uvarint):
//
//	magic "SJDOC2\n\x00" (8 bytes)
//	numNodes, numTags
//	tag dictionary: per tag, length + bytes
//	per node, in document order:
//	    start − the previous node's start (node 0: its start)
//	    end − start
//	    levels closed since the previous node: 0 for its first child, 1 for
//	        its next sibling, and so on up the open path (node 0: 0)
//	    tag
//	    value length + bytes
//
// The round trip is exact — region encoding included, and a forest's
// open-ended root with it — for every document whose nodes are in pre-order
// (each node's parent is the previous node or one of its ancestors), which
// is every document the builders, the parser and AppendMember produce.
// AppendImage refuses any other.
//
// SJDOC1, the fixed-width format written before SJDOC2 existed (all integers
// little-endian), is still read:
//
//	magic "SJDOC1\n\x00" (8 bytes)
//	numNodes uint32, numTags uint32
//	tag dictionary: per tag, uvarint length + bytes
//	per node: start, end uint32; level uint16; tag uint32; parent uint32
//	values: per node, uvarint length + bytes
const (
	imageMagic   = "SJDOC2\n\x00"
	imageMagicV1 = "SJDOC1\n\x00"

	// Fewest bytes a node can occupy: what a count read from an image is
	// held to before anything is allocated for it.
	minNodeBytes   = 5
	nodeBytesV1    = 18
	minNodeBytesV1 = nodeBytesV1 + 1
)

// AppendImage appends d's image to dst and returns the extended slice. A
// document whose nodes are not in pre-order has no image: the error leaves
// dst as it was.
func AppendImage(dst []byte, d *Document) ([]byte, error) {
	n := d.NumNodes()
	out := slices.Grow(dst, len(imageMagic)+8*n)
	out = append(out, imageMagic...)
	out = binary.AppendUvarint(out, uint64(n))
	out = binary.AppendUvarint(out, uint64(d.NumTags()))
	for _, name := range d.tags {
		out = binary.AppendUvarint(out, uint64(len(name)))
		out = append(out, name...)
	}
	// open[l] is the latest node at level l: the open path of the node
	// before the one being written.
	var open []NodeID
	prev := Pos(0)
	for i := 0; i < n; i++ {
		lv := int(d.level[i])
		switch {
		case d.end[i] <= d.start[i], i > 0 && d.start[i] <= prev:
			return dst, fmt.Errorf("xmltree: image: node %d: region [%d, %d] out of document order", i, d.start[i], d.end[i])
		case i == 0 && (lv != 0 || d.parent[0] != InvalidNode):
			return dst, fmt.Errorf("xmltree: image: node 0 is not a root")
		case i > 0 && (lv == 0 || lv > len(open) || d.parent[i] != open[lv-1]):
			return dst, fmt.Errorf("xmltree: image: node %d (level %d, parent %d) is not in pre-order", i, lv, d.parent[i])
		}
		closed := len(open) - lv
		open = append(open[:lv], NodeID(i))
		out = binary.AppendUvarint(out, uint64(d.start[i]-prev))
		out = binary.AppendUvarint(out, uint64(d.end[i]-d.start[i]))
		out = binary.AppendUvarint(out, uint64(closed))
		out = binary.AppendUvarint(out, uint64(d.tag[i]))
		out = binary.AppendUvarint(out, uint64(len(d.value[i])))
		out = append(out, d.value[i]...)
		prev = d.start[i]
	}
	return out, nil
}

// WriteImage serialises the document to w.
func WriteImage(d *Document, w io.Writer) error {
	img, err := AppendImage(nil, d)
	if err != nil {
		return err
	}
	_, err = w.Write(img)
	return err
}

// ReadImage deserialises a document image from r (see DecodeImage).
func ReadImage(r io.Reader) (*Document, error) {
	img, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmltree: image: %w", err)
	}
	return DecodeImage(img)
}

// DecodeImage deserialises a document image written by AppendImage or
// WriteImage, in either format version. No count or length in the image is
// trusted beyond the bytes that are there to back it, and the result is
// validated before being returned. The document does not alias img.
func DecodeImage(img []byte) (*Document, error) {
	if len(img) < len(imageMagic) {
		return nil, fmt.Errorf("xmltree: image header: %w", io.ErrUnexpectedEOF)
	}
	r := &imageReader{b: img, off: len(imageMagic)}
	var d *Document
	switch magic := string(img[:len(imageMagic)]); magic {
	case imageMagic:
		d = r.decode(r.uvarint(), r.uvarint(), minNodeBytes, r.nodes)
	case imageMagicV1:
		d = r.decode(uint64(r.u32()), uint64(r.u32()), minNodeBytesV1, r.nodesV1)
	default:
		return nil, fmt.Errorf("xmltree: not a document image (bad magic %q)", magic)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(img) {
		return nil, fmt.Errorf("xmltree: image: %d trailing bytes", len(img)-r.off)
	}
	if d.end[0] != forestRootEnd {
		d.maxPos = d.end[0]
	} else {
		// A persisted forest image: the root's end is the open-ended
		// sentinel, so the high-water mark is the largest member end.
		for _, e := range d.end[1:] {
			d.maxPos = max(d.maxPos, e)
		}
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("xmltree: image failed validation: %w", err)
	}
	return d, nil
}

// imageValues gathers an image's value bytes into one string that the
// document's values are then cut from: one allocation for the column's text
// whatever the node count, and no table to find repeats in — so a decoded
// document retains its values' total length, and reports no intern
// statistics (those describe a build through a Builder).
type imageValues struct {
	text strings.Builder
	ends []int
}

func (v *imageValues) add(val []byte) {
	v.text.Write(val)
	v.ends = append(v.ends, v.text.Len())
}

func (v *imageValues) fill(column []string) {
	text, from := v.text.String(), 0
	for i, end := range v.ends {
		column[i] = text[from:end]
		from = end
	}
}

// imageReader decodes from a byte slice. The first failure sticks in err and
// every later read returns zero, so the decoders check once per node rather
// than once per field.
type imageReader struct {
	b   []byte
	off int
	err error
}

func (r *imageReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("xmltree: image: "+format, args...)
		r.off = len(r.b)
	}
}

func (r *imageReader) uvarint() uint64 {
	if r.off < len(r.b) && r.b[r.off] < 0x80 {
		r.off++
		return uint64(r.b[r.off-1])
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated or overlong integer at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *imageReader) u32() uint32 {
	if len(r.b)-r.off < 4 {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	r.off += 4
	return binary.LittleEndian.Uint32(r.b[r.off-4:])
}

// bytes returns the next length-prefixed byte string, aliasing the image.
func (r *imageReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)-r.off) {
		r.fail("string of %d bytes at byte %d overruns the image", n, r.off)
		return nil
	}
	r.off += int(n)
	return r.b[r.off-int(n) : r.off]
}

// decode reads everything after the magic: the counts (already read by the
// caller, in the version's own width), the tag dictionary, then the node
// columns through the version's nodes function; it finishes the per-tag
// postings.
func (r *imageReader) decode(numNodes, numTags uint64, perNode int, nodes func(*Document, *imageValues)) *Document {
	if r.err == nil && (numNodes == 0 || numTags == 0 || numTags > numNodes || numNodes > uint64((len(r.b)-r.off)/perNode)) {
		r.fail("implausible sizes (%d nodes, %d tags in %d bytes)", numNodes, numTags, len(r.b))
	}
	if r.err != nil {
		return nil
	}
	d := &Document{
		start:   make([]Pos, numNodes),
		end:     make([]Pos, numNodes),
		level:   make([]uint16, numNodes),
		tag:     make([]TagID, numNodes),
		parent:  make([]NodeID, numNodes),
		value:   make([]string, numNodes),
		tags:    make([]string, numTags),
		tagByNm: make(map[string]TagID, numTags),
		byTag:   make([][]NodeID, numTags),
	}
	for t := range d.tags {
		s := string(r.bytes())
		if _, dup := d.tagByNm[s]; dup {
			r.fail("duplicate tag %q", s)
		}
		d.tags[t] = s
		d.tagByNm[s] = TagID(t)
	}
	if r.err != nil {
		return nil
	}
	vals := imageValues{ends: make([]int, 0, numNodes)}
	vals.text.Grow(max(0, len(r.b)-r.off-perNode*int(numNodes)))
	nodes(d, &vals)
	if r.err != nil {
		return nil
	}
	vals.fill(d.value)

	// Per-tag postings, carved out of one array sized by a counting pass.
	counts := make([]int, numTags)
	for _, t := range d.tag {
		counts[t]++
	}
	all := make([]NodeID, numNodes)
	for t, off := 0, 0; t < len(counts); t++ {
		d.byTag[t] = all[off : off : off+counts[t]]
		off += counts[t]
	}
	for i, t := range d.tag {
		d.byTag[t] = append(d.byTag[t], NodeID(i))
	}
	return d
}

// nodes reads the SJDOC2 node records, rebuilding parent and level from the
// closed-level counts with a stack of the open nodes.
func (r *imageReader) nodes(d *Document, vals *imageValues) {
	numTags := uint64(len(d.tags))
	open := make([]NodeID, 0, 32)
	pos := uint64(0)
	for i := range d.start {
		delta, length, closed, tg := r.uvarint(), r.uvarint(), r.uvarint(), r.uvarint()
		val := r.bytes()
		if r.err != nil {
			return
		}
		pos += delta
		end := pos + length
		switch {
		case end > math.MaxUint32, length == 0, i > 0 && delta == 0:
			r.fail("node %d: region [%d, %d] out of document order", i, pos, end)
		case tg >= numTags:
			r.fail("node %d: tag %d out of range", i, tg)
		case i == 0 && closed != 0, i > 0 && closed >= uint64(len(open)):
			r.fail("node %d: closes %d of %d open levels", i, closed, len(open))
		case len(open)-int(closed) > math.MaxUint16:
			r.fail("node %d: deeper than %d levels", i, math.MaxUint16)
		}
		if r.err != nil {
			return
		}
		open = open[:len(open)-int(closed)]
		d.parent[i] = InvalidNode
		if len(open) > 0 {
			d.parent[i] = open[len(open)-1]
		}
		d.level[i] = uint16(len(open))
		open = append(open, NodeID(i))
		d.start[i], d.end[i] = Pos(pos), Pos(end)
		d.tag[i] = TagID(tg)
		vals.add(val)
	}
}

// nodesV1 reads the SJDOC1 fixed-width node records and the value section
// behind them.
func (r *imageReader) nodesV1(d *Document, vals *imageValues) {
	n := len(d.start)
	if n > (len(r.b)-r.off)/nodeBytesV1 {
		r.fail("%d nodes overrun the image", n)
		return
	}
	rec := r.b[r.off : r.off+n*nodeBytesV1]
	r.off += len(rec)
	for i := 0; i < n; i, rec = i+1, rec[nodeBytesV1:] {
		tg := binary.LittleEndian.Uint32(rec[10:])
		if tg >= uint32(len(d.tags)) {
			r.fail("node %d: tag %d out of range", i, tg)
			return
		}
		d.start[i] = Pos(binary.LittleEndian.Uint32(rec[0:]))
		d.end[i] = Pos(binary.LittleEndian.Uint32(rec[4:]))
		d.level[i] = binary.LittleEndian.Uint16(rec[8:])
		d.tag[i] = TagID(tg)
		d.parent[i] = NodeID(binary.LittleEndian.Uint32(rec[14:]))
	}
	for range d.value {
		vals.add(r.bytes())
	}
}
