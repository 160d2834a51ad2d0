package storage

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"

	"sjos/internal/intern"
	"sjos/internal/xmltree"
)

// NodeRecord is the fixed-width on-page representation of an element node:
// the region encoding plus tag and parent link. Text values stay in the
// in-memory Document; structural join processing never touches them.
type NodeRecord struct {
	Start  xmltree.Pos
	End    xmltree.Pos
	Level  uint16
	Tag    xmltree.TagID
	Parent xmltree.NodeID
}

// nodeRecSize is the serialised size of a NodeRecord.
const nodeRecSize = 4 + 4 + 2 + 4 + 4

// nodesPerPage is how many NodeRecords fit in one page's payload (the first
// PageHeaderSize bytes hold the integrity header).
const nodesPerPage = PayloadSize / nodeRecSize

// rawPostingSize is the serialised size of one uncompressed posting (a
// NodeID) — the baseline the compressed blocks are measured against.
const rawPostingSize = 4

// Store is the paged element store plus tag and value indexes for one
// document: the stand-in for Timber's SHORE-backed element storage. All
// page access goes through a BufferPool so experiments observe hit/miss
// behaviour. Postings — tag lists and value-index lists alike — are stored
// as compressed delta+varint blocks (see postings.go).
type Store struct {
	doc  *storeMeta
	file PageFile
	pool *BufferPool

	tagDir    []postingsRun
	tagByName map[string]xmltree.TagID

	// vix is the (tag, value) content index: the live segments' own indexes
	// in segment order — a probe asks each in turn (see probeValue).
	vix []*valueIndex

	// segs lists the store's segments, one per contiguous NodeID slice, in
	// NodeID order: the built document is segment 0, every appended forest
	// member one more (see segstore.go). Mutations never modify a published
	// Store — they derive a new version sharing file, pool and counters — so
	// everything here is immutable after construction and safe for
	// concurrent readers.
	segs     []*segment
	tailPage PageID // next free page

	// Compression and probe accounting (see ContentStats).
	postingsBytes    int
	rawPostingsBytes int
	internStats      intern.Stats
	// shared holds the monotone counters every version of a store reports
	// against: derived versions alias it so probes and block decodes stay
	// continuous across mutations.
	shared *storeCounters
}

// storeCounters are the cross-version monotone counters.
type storeCounters struct {
	probes        atomic.Uint64
	blocksDecoded atomic.Uint64
}

// storeMeta holds the document-level metadata the store needs after build.
type storeMeta struct {
	NumNodes int
	NumTags  int
	Tags     []string
}

// BuildStore serialises doc into a fresh MemFile and returns a Store reading
// through a buffer pool with the given number of frames (DefaultPoolFrames
// if <= 0).
func BuildStore(doc *xmltree.Document, poolFrames int) (*Store, error) {
	return BuildStoreOn(NewMemFile(), doc, poolFrames)
}

// BuildStoreOn lays doc down as segment 0 of the given (empty) page file —
// e.g. a DiskFile for a persistent database image — writing its pages
// straight to the file, and returns a Store reading through a buffer pool
// with the given number of frames. A fresh forest (xmltree.NewForest) is a
// one-node document like any other: its store holds the synthetic root, and
// members are appended with StageSegment / CommitStage.
func BuildStoreOn(file PageFile, doc *xmltree.Document, poolFrames int) (*Store, error) {
	if file.NumPages() != 0 {
		return nil, fmt.Errorf("storage: BuildStoreOn needs an empty file, got %d pages", file.NumPages())
	}
	st, err := planSegment(file, doc, xmltree.DocSpan{Nodes: doc.NumNodes()}, 0)
	if err != nil {
		return nil, err
	}
	empty := Store{file: file, pool: NewBufferPool(file, poolFrames), shared: &storeCounters{}}
	return empty.AdoptStage(st), nil
}

func encodeNode(b []byte, doc *xmltree.Document, id xmltree.NodeID) {
	binary.LittleEndian.PutUint32(b[0:], uint32(doc.Start(id)))
	binary.LittleEndian.PutUint32(b[4:], uint32(doc.End(id)))
	binary.LittleEndian.PutUint16(b[8:], doc.Level(id))
	binary.LittleEndian.PutUint32(b[10:], uint32(doc.Tag(id)))
	binary.LittleEndian.PutUint32(b[14:], uint32(doc.Parent(id)))
}

func decodeNode(b []byte) NodeRecord {
	return NodeRecord{
		Start:  xmltree.Pos(binary.LittleEndian.Uint32(b[0:])),
		End:    xmltree.Pos(binary.LittleEndian.Uint32(b[4:])),
		Level:  binary.LittleEndian.Uint16(b[8:]),
		Tag:    xmltree.TagID(binary.LittleEndian.Uint32(b[10:])),
		Parent: xmltree.NodeID(binary.LittleEndian.Uint32(b[14:])),
	}
}

// NumNodes returns the number of stored element nodes.
func (s *Store) NumNodes() int { return s.doc.NumNodes }

// Pool returns the store's buffer pool (for stats and tests).
func (s *Store) Pool() *BufferPool { return s.pool }

// PoolStats returns a snapshot of the store's buffer pool counters — the
// page-cache hit/miss behaviour of everything executed against this store,
// including concurrent queries (the pool counts under its own lock).
func (s *Store) PoolStats() PoolStats { return s.pool.Stats() }

// File returns the underlying page file (for stats and tests).
func (s *Store) File() PageFile { return s.file }

// TagCount returns the number of postings for tag t — the |candidates|
// statistic the optimizer's cost model consumes.
func (s *Store) TagCount(t xmltree.TagID) int {
	if int(t) >= len(s.tagDir) {
		return 0
	}
	return s.tagDir[t].count
}

// Node fetches one node record through the buffer pool.
func (s *Store) Node(id xmltree.NodeID) (NodeRecord, error) {
	return s.NodeCtx(context.Background(), id)
}

// nodeSlot locates node id's record: the page holding it and the byte
// offset within the page. Within a segment records lie contiguously from its
// first node page. Segment 0 starts at node 0 on page 0 in every store — all
// of a store built over one document, the root of a forest — so its records
// are found by arithmetic alone; a node past it binary-searches the segment
// table (segments are in NodeID order).
func (s *Store) nodeSlot(id xmltree.NodeID) (PageID, int, error) {
	if int(id) < s.segs[0].count {
		return PageID(int(id) / nodesPerPage), PageHeaderSize + (int(id)%nodesPerPage)*nodeRecSize, nil
	}
	i := sort.Search(len(s.segs), func(j int) bool { return s.segs[j].first > id }) - 1
	if i < 0 {
		return 0, 0, fmt.Errorf("storage: node %d before first segment", id)
	}
	sg := s.segs[i]
	local := int(id - sg.first)
	if local >= sg.count {
		return 0, 0, fmt.Errorf("storage: node %d outside segment %d", id, i)
	}
	return sg.nodeBase + PageID(local/nodesPerPage), PageHeaderSize + (local%nodesPerPage)*nodeRecSize, nil
}

// NodeCtx is Node under a context: cancellation aborts page-read waits
// (including the pool's retry backoffs).
func (s *Store) NodeCtx(ctx context.Context, id xmltree.NodeID) (NodeRecord, error) {
	p, off, err := s.nodeSlot(id)
	if err != nil {
		return NodeRecord{}, err
	}
	pg, err := s.pool.GetCtx(ctx, p)
	if err != nil {
		return NodeRecord{}, err
	}
	rec := decodeNode(pg[off:])
	s.pool.Unpin(p, false)
	return rec, nil
}

// TagScanner iterates one tag's postings in document order, fetching node
// records through the buffer pool. It is the physical realisation of the
// paper's "index access" leaf operator. All iteration mechanics (block
// decode, skip-ahead) live in the embedded runCursor, shared with the
// value-index scanners.
type TagScanner struct {
	runCursor
}

// ScanTag opens a scanner over tag t's postings.
func (s *Store) ScanTag(t xmltree.TagID) *TagScanner {
	return s.ScanTagCtx(context.Background(), t)
}

// ScanTagCtx is ScanTag under a context: the scanner's page reads — and any
// retry backoffs inside them — abort when ctx is cancelled.
func (s *Store) ScanTagCtx(ctx context.Context, t xmltree.TagID) *TagScanner {
	var run postingsRun
	if int(t) < len(s.tagDir) {
		run = s.tagDir[t]
	}
	sc := &TagScanner{}
	sc.init(s, ctx, run)
	return sc
}

// ContentStats reports the store's content-index and compression counters:
// how many value probes and block decodes the store has served, the
// compressed versus raw postings footprint, and the document build's
// intern-table behaviour.
type ContentStats struct {
	// ValueRuns is the number of (tag, value) postings lists persisted.
	ValueRuns int
	// NumericTags is the number of tags with a numeric-range index.
	NumericTags int
	// ValueProbes counts index probes served (sjos_value_index_probes_total).
	ValueProbes uint64
	// BlocksDecoded counts compressed postings blocks decoded
	// (sjos_postings_blocks_decoded_total).
	BlocksDecoded uint64
	// PostingsBytes is the encoded size of all postings (tag + value);
	// RawPostingsBytes the size the same lists would occupy uncompressed
	// (4 bytes per posting).
	PostingsBytes    int
	RawPostingsBytes int
	// Intern is the document build's value intern-table snapshot.
	Intern intern.Stats
}

// ContentStats returns a snapshot of the store's content-index counters.
func (s *Store) ContentStats() ContentStats {
	cs := ContentStats{
		ValueProbes:      s.shared.probes.Load(),
		BlocksDecoded:    s.shared.blocksDecoded.Load(),
		PostingsBytes:    s.postingsBytes,
		RawPostingsBytes: s.rawPostingsBytes,
		Intern:           s.internStats,
	}
	for _, vx := range s.vix {
		cs.ValueRuns += vx.runs
	}
	for t := range s.tagDir {
		if s.rangeProbeable(xmltree.TagID(t)) {
			cs.NumericTags++
		}
	}
	return cs
}
