package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"sjos/internal/xmltree"
)

// Every store is a sequence of segments, each with its own node pages, tag
// postings and value index, laid out in one contiguous page run. BuildStoreOn
// lays the built document down as segment 0; a store over an appendable
// forest (xmltree.NewForest / AppendMember) starts as the synthetic root and
// gains one segment per member document. Store versions are immutable: a
// mutation stages a new segment against a capture file (producing the sealed
// pages whose digest the WAL logs), and adopting the stage yields a NEW Store
// value that shares the page file, buffer pool and counters with its
// predecessor. Because a segment only ever appends pages past every older
// version's tail and a delete touches no pages at all, published versions
// and the shared page cache stay valid under concurrent readers — the
// ingestion layer swaps an atomic pointer and in-flight queries finish on the
// version they started with.
//
// Readers see one combined view per version: the per-tag postings runs of
// the live segments concatenated in NodeID order (block directories are
// in-memory, so concatenation is pointer work — no page I/O). The value
// index is not combined: a version lists its live segments' indexes and a
// probe asks each for the one key it wants, so assembling a version costs
// tags × live segments and nothing per distinct value.

// segment is one contiguous NodeID slice of the stored document and its
// pages.
type segment struct {
	first    xmltree.NodeID
	count    int
	nodeBase PageID        // node records occupy [nodeBase, nodeBase+nodePages)
	dir      []postingsRun // by TagID; a tag the segment lacks has an empty run
	vix      *valueIndex   // per-segment
	dead     bool
}

// SegmentStage is a staged (not yet durable) segment append: the sealed
// pages to apply (and to log the digest of), plus the metadata the adopting
// store version takes over.
type SegmentStage struct {
	seg      *segment
	doc      *xmltree.Document // the document version holding the segment
	images   []WALPageImage    // nil for a build, which wrote its pages itself
	endPage  PageID
	encBytes int
	rawBytes int
}

// Digest is the SHA-256 over the stage's sealed pages in stage order, each as
// its page id (little endian) followed by its bytes: what a commit logs about
// the pages it is about to apply. Staging is a pure function of the append
// sequence, so a replay that reaches the same digest has laid the document
// out on the same pages with the same bytes, as surely as comparing the
// pages themselves would show — short of a SHA-256 collision, which no
// software fault or torn write produces.
func (st *SegmentStage) Digest() StageDigest {
	h := sha256.New()
	var id [4]byte
	for i := range st.images {
		binary.LittleEndian.PutUint32(id[:], uint32(st.images[i].Page))
		h.Write(id[:])
		h.Write(st.images[i].Data[:])
	}
	return StageDigest(h.Sum(nil))
}

// captureFile collects sequential page writes in memory instead of touching
// the real file: staging runs planSegment against it, the build against the
// real file, so live commit, initial build and recovery replay all share one
// layout-defining code path.
type captureFile struct {
	base   PageID
	images []WALPageImage
}

func (c *captureFile) WritePage(id PageID, src *Page) error {
	if want := c.base + PageID(len(c.images)); id != want {
		return fmt.Errorf("storage: capture file: write page %d, want %d", id, want)
	}
	c.images = append(c.images, WALPageImage{Page: id, Data: *src})
	return nil
}

func (c *captureFile) ReadPage(id PageID, dst *Page) error {
	if id >= c.base && int(id-c.base) < len(c.images) {
		*dst = c.images[id-c.base].Data
		return nil
	}
	return fmt.Errorf("storage: capture file: read of unwritten page %d", id)
}

func (c *captureFile) NumPages() int { return int(c.base) + len(c.images) }

// spanNodes returns the tag's postings restricted to one span. The
// document's per-tag lists are in NodeID order, so the restriction is two
// binary searches on the shared slice.
func spanNodes(doc *xmltree.Document, t xmltree.TagID, span xmltree.DocSpan) []xmltree.NodeID {
	all := doc.NodesWithTag(t)
	end := span.First + xmltree.NodeID(span.Nodes)
	lo := sort.Search(len(all), func(i int) bool { return all[i] >= span.First })
	hi := sort.Search(len(all), func(i int) bool { return all[i] >= end })
	return all[lo:hi]
}

// nodePagesFor is how many pages n node records occupy.
func nodePagesFor(n int) int { return (n + nodesPerPage - 1) / nodesPerPage }

// planSegment serialises the span of doc as a fresh segment starting at page
// base, writing its sealed pages to dst in page order: the store's own file
// for a build, a capture file for a stage.
func planSegment(dst PageFile, doc *xmltree.Document, span xmltree.DocSpan, base PageID) (*SegmentStage, error) {
	n := span.Nodes
	nodePages := nodePagesFor(n)
	var page Page
	for p := 0; p < nodePages; p++ {
		for i := 0; i < nodesPerPage; i++ {
			local := p*nodesPerPage + i
			if local >= n {
				break
			}
			encodeNode(page[PageHeaderSize+i*nodeRecSize:], doc, span.First+xmltree.NodeID(local))
		}
		id := base + PageID(p)
		SealPage(id, &page)
		if err := dst.WritePage(id, &page); err != nil {
			return nil, fmt.Errorf("storage: write node page %d: %w", id, err)
		}
		page = Page{}
	}

	nodesOf := func(t xmltree.TagID) []xmltree.NodeID { return spanNodes(doc, t, span) }
	w := newPostingsWriter(dst, base+PageID(nodePages))
	dir := make([]postingsRun, doc.NumTags())
	rawBytes := 0
	for t := 0; t < doc.NumTags(); t++ {
		ids := nodesOf(xmltree.TagID(t))
		if len(ids) == 0 {
			continue
		}
		run, err := w.writeRun(ids)
		if err != nil {
			return nil, fmt.Errorf("storage: segment postings: %w", err)
		}
		dir[t] = run
		rawBytes += rawPostingSize * len(ids)
	}
	vx, vxRaw, err := buildValueIndexOver(w, doc, nodesOf)
	if err != nil {
		return nil, fmt.Errorf("storage: segment value index: %w", err)
	}
	rawBytes += vxRaw
	end, err := w.finish()
	if err != nil {
		return nil, err
	}
	return &SegmentStage{
		seg:      &segment{first: span.First, count: n, nodeBase: base, dir: dir, vix: vx},
		doc:      doc,
		endPage:  end,
		encBytes: w.bytes,
		rawBytes: rawBytes,
	}, nil
}

// NumSegments returns the number of segments (a forest's synthetic root
// counts); the next StageSegment adds segment index NumSegments.
func (s *Store) NumSegments() int { return len(s.segs) }

// StageSegment serialises the forest member at span as the store's next
// segment without touching the store's file: the returned stage carries the
// sealed pages, whose digest the WAL logs. forest must be the version that
// already contains the member.
func (s *Store) StageSegment(forest *xmltree.Document, span xmltree.DocSpan) (*SegmentStage, error) {
	// Compressed postings take about half the pages the node records do; a
	// longer stage grows the slice, a shorter one is dropped after commit
	// like any other.
	nodePages := nodePagesFor(span.Nodes)
	cf := &captureFile{base: s.tailPage, images: make([]WALPageImage, 0, nodePages+nodePages/2+2)}
	st, err := planSegment(cf, forest, span, s.tailPage)
	if err != nil {
		return nil, err
	}
	st.images = cf.images
	return st, nil
}

// writeImages applies sealed page images to the store's file in order.
func (s *Store) writeImages(images []WALPageImage) error {
	for i := range images {
		if err := s.file.WritePage(images[i].Page, &images[i].Data); err != nil {
			return fmt.Errorf("storage: apply page %d: %w", images[i].Page, err)
		}
	}
	return nil
}

// CommitStage writes the stage's pages to the store's file, fsyncs when the
// file supports it, and returns the successor version. The caller must have
// made the mutation durable (WAL commit) first.
func (s *Store) CommitStage(st *SegmentStage) (*Store, error) {
	if err := s.writeImages(st.images); err != nil {
		return nil, err
	}
	if sy, ok := s.file.(syncer); ok {
		if err := sy.Sync(); err != nil {
			return nil, fmt.Errorf("storage: fsync after segment apply: %w", err)
		}
	}
	return s.AdoptStage(st), nil
}

// ErrStageMismatch marks a replay that staged a logged document onto
// different pages than the commit that logged it: the code that lays
// documents out has changed under the log, or the logged document has.
var ErrStageMismatch = errors.New("storage: replayed stage differs from the logged one")

// VerifyDigest checks the stage against the digest its transaction logged —
// the recovery pass's redo consistency check.
func (st *SegmentStage) VerifyDigest(logged StageDigest) error {
	if got := st.Digest(); got != logged {
		return fmt.Errorf("%w: stage digest %x over %d pages from page %d, logged %x", ErrStageMismatch, got[:8], len(st.images), st.seg.nodeBase, logged[:8])
	}
	return nil
}

// VerifyStage is the same check for a transaction that logged the staged
// pages in full (logs from before stage digests): the computed pages must be
// byte-identical to the logged ones.
func (st *SegmentStage) VerifyStage(logged []WALPageImage) error {
	if len(logged) != len(st.images) {
		return fmt.Errorf("%w: %d pages logged, %d staged", ErrStageMismatch, len(logged), len(st.images))
	}
	for i := range logged {
		if logged[i].Page != st.images[i].Page || !bytes.Equal(logged[i].Data[:], st.images[i].Data[:]) {
			return fmt.Errorf("%w: at logged page %d", ErrStageMismatch, logged[i].Page)
		}
	}
	return nil
}

// AdoptStage returns the successor Store version with the staged segment
// live. The stage's pages must already be in the file (CommitStage does
// both). The successor shares file, pool and counters with s; s itself
// stays valid for in-flight readers.
func (s *Store) AdoptStage(st *SegmentStage) *Store {
	segs := make([]*segment, len(s.segs), len(s.segs)+1)
	copy(segs, s.segs)
	segs = append(segs, st.seg)
	return s.rebuildVersion(st.doc, segs, st.endPage,
		s.postingsBytes+st.encBytes, s.rawPostingsBytes+st.rawBytes)
}

// DropSegment returns the successor version with segment idx marked dead:
// its postings leave every combined view, so no scan or probe can produce
// its nodes. No page is touched — the dead segment's pages are reclaimed by
// compaction.
func (s *Store) DropSegment(forest *xmltree.Document, idx int) (*Store, error) {
	if idx <= 0 || idx >= len(s.segs) {
		return nil, fmt.Errorf("storage: DropSegment index %d of %d", idx, len(s.segs))
	}
	if s.segs[idx].dead {
		return nil, fmt.Errorf("storage: segment %d already dead", idx)
	}
	segs := make([]*segment, len(s.segs))
	copy(segs, s.segs)
	dead := *segs[idx]
	dead.dead = true
	segs[idx] = &dead
	return s.rebuildVersion(forest, segs, s.tailPage, s.postingsBytes, s.rawPostingsBytes), nil
}

// DeadFraction reports the fraction of stored nodes belonging to dead
// segments — the compaction trigger signal.
func (s *Store) DeadFraction() float64 {
	dead, total := 0, 0
	for _, sg := range s.segs {
		total += sg.count
		if sg.dead {
			dead += sg.count
		}
	}
	if total == 0 {
		return 0
	}
	return float64(dead) / float64(total)
}

// rebuildVersion assembles a successor Store: new segment table, combined
// directories rebuilt from the live segments, shared file/pool/counters.
func (s *Store) rebuildVersion(forest *xmltree.Document, segs []*segment, tail PageID, encBytes, rawBytes int) *Store {
	numTags := forest.NumTags()
	tags := make([]string, numTags)
	byName := make(map[string]xmltree.TagID, numTags)
	for t := 0; t < numTags; t++ {
		tags[t] = forest.TagName(xmltree.TagID(t))
		byName[tags[t]] = xmltree.TagID(t)
	}
	dir, vix := combineSegments(segs, numTags)
	return &Store{
		doc:              &storeMeta{NumNodes: forest.NumNodes(), NumTags: numTags, Tags: tags},
		file:             s.file,
		pool:             s.pool,
		tagDir:           dir,
		tagByName:        byName,
		vix:              vix,
		segs:             segs,
		tailPage:         tail,
		postingsBytes:    encBytes,
		rawPostingsBytes: rawBytes,
		internStats:      forest.InternStats(),
		shared:           s.shared,
	}
}

// append adds run's postings after r's. Block directory entries keep their
// pages and offsets; only their run-relative start indexes shift, by the
// postings now before them. Correctness needs run's NodeIDs (and Start
// positions) strictly above r's — guaranteed when runs of different
// segments are joined in segment order.
func (r *postingsRun) append(run postingsRun) {
	for _, ref := range run.blocks {
		ref.startIdx += int32(r.count)
		r.blocks = append(r.blocks, ref)
	}
	r.count += run.count
}

// combineSegments builds the per-version read view over the live segments
// in segment (= NodeID) order: one joined postings run per tag, and the list
// of the segments' value indexes. All work is over in-memory block
// directories, one pass to size each tag's directory and one to fill it.
func combineSegments(segs []*segment, numTags int) ([]postingsRun, []*valueIndex) {
	dir := make([]postingsRun, numTags)
	nblocks := make([]int, numTags)
	vix := make([]*valueIndex, 0, len(segs))
	for _, sg := range segs {
		if sg.dead {
			continue
		}
		for t, run := range sg.dir {
			nblocks[t] += len(run.blocks)
		}
		vix = append(vix, sg.vix)
	}
	for _, sg := range segs {
		if sg.dead {
			continue
		}
		for t, run := range sg.dir {
			if run.count == 0 {
				continue
			}
			d := &dir[t]
			if d.blocks == nil {
				if len(run.blocks) == nblocks[t] {
					*d = run // the tag's one live run: shared, not copied
					continue
				}
				d.blocks = make([]blockRef, 0, nblocks[t])
			}
			d.append(run)
		}
	}
	return dir, vix
}
