package storage

import (
	"cmp"
	"context"
	"encoding/binary"
	"slices"
	"sort"
	"strings"

	"sjos/internal/pattern"
	"sjos/internal/xmltree"
)

// The value (content) index: per tag, a postings list for every distinct
// text value under a directory sorted by value (exact-match lookups) and,
// over the distinct numeric values, a directory sorted by number (numeric
// equality and range lookups). Postings live in the same compressed
// paged format as the tag index — one postingsWriter lays both segments out
// during the build, so value-index reads flow through the buffer pool,
// checksums and the retry path like every other page access.
//
// Eligibility is deliberately conservative: a probe is offered only when
// the index provably reproduces pattern.EvalPredicate's semantics.
//
//   - CmpEq with a non-numeric rhs: byte-exact lookup. A numeric stored
//     value can never equal a non-numeric rhs (equality would imply equal
//     bytes, hence equal parseability), so the value directory suffices.
//   - CmpEq with a numeric rhs: numeric-group lookup, which merges
//     byte-distinct spellings of one number ("1", "1.0"). Non-numeric
//     stored values compare lexicographically against the rhs and byte
//     equality would again imply parseability, so none can match.
//   - CmpLt/Le/Gt/Ge with a numeric rhs: served from the numeric directory
//     only when every node of the tag has a non-empty numeric value
//     (allNumeric) — otherwise some values would compare lexicographically
//     and the numeric index cannot reproduce that.
//   - Everything else (CmpNe, CmpContains, lexicographic ranges, empty
//     rhs): not eligible; the executor falls back to scan+filter.
type valueIndex struct {
	tags []tagValues // indexed by TagID
	runs int         // postings lists persisted (exact groups + merged numeric groups)
}

// tagValues is one tag's directory in one index. vals holds the tag's
// distinct non-empty values in byte order, runs[i] the postings of vals[i]:
// an exact probe is a binary search. nums holds the distinct numbers those
// values parse to in ascending order, numRuns[i] the postings of all nodes
// whose value parses to nums[i], whatever its spelling: a numeric-equality
// probe is a binary search, a range probe a slice. A number with one
// spelling shares that value's run. Values are the document's interned
// strings, so vals costs no bytes of its own.
type tagValues struct {
	present    bool // the index covers nodes of this tag
	allNumeric bool // every one of them has a non-empty numeric value
	vals       []string
	runs       []postingsRun
	nums       []float64
	numRuns    []postingsRun
}

// valueEntry is one (value, node) pair of the tag being indexed. key is the
// value's first eight bytes as a big-endian number, zero-padded: it orders
// as the bytes do, so most comparisons of a sort never reach the strings.
type valueEntry struct {
	key uint64
	val string
	id  xmltree.NodeID
}

func valueKey(v string) uint64 {
	var b [8]byte
	copy(b[:], v)
	return binary.BigEndian.Uint64(b[:])
}

// numberEntry is one distinct value that parses as a number: the number and
// the value's position in tagValues.vals.
type numberEntry struct {
	num float64
	idx int
}

// buildValueIndexOver groups every tag's nodes by text value and writes the
// groups' postings through w. It returns the index and the raw
// (uncompressed-equivalent) byte count of the lists written. nodesOf supplies
// the per-tag node lists: the segment builder passes a span-restricted view,
// so every segment gets its own self-contained index.
//
// A tag's groups come from one sort of its (value, node) pairs, and each
// distinct value is parsed as a number once. The order runs are written in
// is part of the page format (recovery compares staged pages with logged
// ones byte for byte): tags ascending; within a tag the exact groups in
// value byte order, then one merged run for every number spelled more than
// one way, in ascending number order.
func buildValueIndexOver(w *postingsWriter, doc *xmltree.Document, nodesOf func(xmltree.TagID) []xmltree.NodeID) (*valueIndex, int, error) {
	vx := &valueIndex{tags: make([]tagValues, doc.NumTags())}
	rawBytes := 0
	var (
		entries []valueEntry
		bounds  []int // entries[bounds[i]:bounds[i+1]] is the group of vals[i]
		numbers []numberEntry
		ids     []xmltree.NodeID
	)
	writeRun := func(ids []xmltree.NodeID) (postingsRun, error) {
		vx.runs++
		rawBytes += rawPostingSize * len(ids)
		return w.writeRun(ids)
	}
	for t := range vx.tags {
		nodes := nodesOf(xmltree.TagID(t))
		if len(nodes) == 0 {
			continue
		}
		tv := &vx.tags[t]
		tv.present, tv.allNumeric = true, true
		entries = entries[:0]
		for _, id := range nodes {
			if v := doc.Value(id); v != "" {
				entries = append(entries, valueEntry{valueKey(v), v, id})
			}
		}
		if len(entries) < len(nodes) {
			tv.allNumeric = false // empty values are not indexed
		}
		slices.SortFunc(entries, func(a, b valueEntry) int {
			if a.key != b.key {
				return cmp.Compare(a.key, b.key)
			}
			if c := strings.Compare(a.val, b.val); c != 0 {
				return c
			}
			return cmp.Compare(a.id, b.id) // a group's postings in document order
		})
		distinct := 0
		for i := range entries {
			if i == 0 || entries[i].val != entries[i-1].val {
				distinct++
			}
		}
		tv.vals, tv.runs = make([]string, 0, distinct), make([]postingsRun, 0, distinct)
		bounds, numbers = bounds[:0], numbers[:0]
		for lo := 0; lo < len(entries); {
			hi := lo + 1
			for hi < len(entries) && entries[hi].val == entries[lo].val {
				hi++
			}
			ids = ids[:0]
			for _, e := range entries[lo:hi] {
				ids = append(ids, e.id)
			}
			run, err := writeRun(ids)
			if err != nil {
				return nil, 0, err
			}
			if f, ok := pattern.ParseNumeric(entries[lo].val); !ok {
				tv.allNumeric = false
			} else if f == f { // NaN orders against nothing: exact probes only
				numbers = append(numbers, numberEntry{f, len(tv.vals)})
			}
			bounds = append(bounds, lo)
			tv.vals = append(tv.vals, entries[lo].val)
			tv.runs = append(tv.runs, run)
			lo = hi
		}
		bounds = append(bounds, len(entries))
		// Numeric directory: byte-distinct spellings of one number ("1",
		// "1.0") become one merged run.
		slices.SortFunc(numbers, func(a, b numberEntry) int { return cmp.Compare(a.num, b.num) })
		for lo := 0; lo < len(numbers); {
			hi := lo + 1
			for hi < len(numbers) && numbers[hi].num == numbers[lo].num {
				hi++
			}
			run := tv.runs[numbers[lo].idx]
			if hi-lo > 1 {
				ids = ids[:0]
				for _, n := range numbers[lo:hi] {
					for _, e := range entries[bounds[n.idx]:bounds[n.idx+1]] {
						ids = append(ids, e.id)
					}
				}
				slices.Sort(ids)
				var err error
				if run, err = writeRun(ids); err != nil {
					return nil, 0, err
				}
			}
			tv.nums = append(tv.nums, numbers[lo].num)
			tv.numRuns = append(tv.numRuns, run)
			lo = hi
		}
	}
	return vx, rawBytes, nil
}

// lookup returns the runs of this index an eligible probe of tag t reads,
// as a slice of the tag's directory (empty for a value the index lacks, or
// a tag it was built before). num is value parsed, when it is numeric.
func (vx *valueIndex) lookup(t xmltree.TagID, op pattern.CmpOp, value string, num float64, numeric bool) []postingsRun {
	if int(t) >= len(vx.tags) {
		return nil
	}
	tv := &vx.tags[t]
	if op == pattern.CmpEq && !numeric {
		if i, ok := slices.BinarySearch(tv.vals, value); ok {
			return tv.runs[i : i+1]
		}
		return nil
	}
	lower := sort.SearchFloat64s(tv.nums, num) // first index with nums >= num
	upper := lower
	if upper < len(tv.nums) && tv.nums[upper] == num {
		upper++ // first index with nums > num
	}
	switch op {
	case pattern.CmpEq:
		return tv.numRuns[lower:upper]
	case pattern.CmpLt:
		return tv.numRuns[:lower]
	case pattern.CmpLe:
		return tv.numRuns[:upper]
	case pattern.CmpGt:
		return tv.numRuns[upper:]
	case pattern.CmpGe:
		return tv.numRuns[lower:]
	}
	return nil
}

// rangeProbeable reports whether every node of tag t in the store has a
// non-empty numeric value — the condition under which the numeric directory
// reproduces a range predicate (see the case analysis above).
func (s *Store) rangeProbeable(t xmltree.TagID) bool {
	present := false
	for _, vx := range s.vix {
		if int(t) >= len(vx.tags) || !vx.tags[t].present {
			continue
		}
		if !vx.tags[t].allNumeric {
			return false
		}
		present = true
	}
	return present
}

// ProbeEligible reports whether the value predicate (op, value) on the
// given tag can be served by an index probe with semantics identical to
// scan+filter (see the package comment above for the case analysis). The
// optimizer consults this through the estimator; the executor re-checks it
// when it opens a probe leaf.
func (s *Store) ProbeEligible(tag string, op pattern.CmpOp, value string) bool {
	_, _, _, ok := s.probeKey(tag, op, value)
	return ok
}

// probeKey decides eligibility and, for an eligible probe, resolves what
// every index is asked: the tag's ID and the value as a number when the
// probe is numeric.
func (s *Store) probeKey(tag string, op pattern.CmpOp, value string) (t xmltree.TagID, num float64, numeric, ok bool) {
	if t, ok = s.tagByName[tag]; !ok {
		return 0, 0, false, false
	}
	num, numeric = pattern.ParseNumeric(value)
	switch op {
	case pattern.CmpEq:
		// Empty values are not indexed, and [. = ""] does match them.
		return t, num, numeric, value != ""
	case pattern.CmpLt, pattern.CmpLe, pattern.CmpGt, pattern.CmpGe:
		// A non-numeric bound is a lexicographic range: scan+filter.
		return t, num, numeric, numeric && s.rangeProbeable(t)
	}
	return 0, 0, false, false
}

// ProbeSelectivity returns the exact number of nodes an eligible probe
// would produce, and whether the probe is eligible at all. The optimizer
// uses it as a perfect cardinality for the indexed leaf.
func (s *Store) ProbeSelectivity(tag string, op pattern.CmpOp, value string) (int, bool) {
	t, num, numeric, ok := s.probeKey(tag, op, value)
	if !ok {
		return 0, false
	}
	n := 0
	for _, vx := range s.vix {
		for _, r := range vx.lookup(t, op, value, num, numeric) {
			n += r.count
		}
	}
	return n, true
}

// ValueScanner streams the postings of a value-index probe in document
// order, with the same iteration contract as TagScanner (which satisfies
// it): tuple-at-a-time Next, block-wise NextBlock and forward-only SeekGE
// skip-ahead.
type ValueScanner interface {
	Next() (xmltree.NodeID, NodeRecord, bool, error)
	NextBlock(ids []xmltree.NodeID) (int, error)
	SeekGE(id xmltree.NodeID) (int, error)
}

// ProbeValue opens a probe scanner for (tag, op, value). ok is false when
// the probe is not eligible (the caller should fall back to scan+filter);
// an eligible probe of an absent value returns an empty scanner.
func (s *Store) ProbeValue(tag string, op pattern.CmpOp, value string) (ValueScanner, bool) {
	return s.ProbeValueCtx(context.Background(), tag, op, value)
}

// ProbeValueCtx is ProbeValue under a context (see ScanTagCtx).
func (s *Store) ProbeValueCtx(ctx context.Context, tag string, op pattern.CmpOp, value string) (ValueScanner, bool) {
	t, num, numeric, ok := s.probeKey(tag, op, value)
	if !ok {
		return nil, false
	}
	s.shared.probes.Add(1)
	// Every index answers for its own nodes. The indexes are the live
	// segments' in segment order, segments are contiguous NodeID ranges, and
	// NodeIDs are assigned in document order: one run an index (an equality
	// probe), the runs joined one after another are the answer in document
	// order. No hit at all is the empty probe of a value the store lacks.
	var runs []postingsRun
	merges := false
	for _, vx := range s.vix {
		hit := vx.lookup(t, op, value, num, numeric)
		runs = append(runs, hit...)
		merges = merges || len(hit) > 1
	}
	if merges {
		return &sortedScanner{store: s, ctx: ctx, runs: runs}, true
	}
	var run postingsRun
	if len(runs) == 1 {
		run = runs[0]
	} else {
		nblocks := 0
		for _, r := range runs {
			nblocks += len(r.blocks)
		}
		run.blocks = make([]blockRef, 0, nblocks)
		for _, r := range runs {
			run.append(r)
		}
	}
	cur := &runCursor{}
	cur.init(s, ctx, run)
	return cur, true
}

// sortedScanner serves a range probe, which reads one run per distinct
// number in every segment: on first use it decodes every run's blocks into
// one slice and sorts it by NodeID (document order), so a posting costs a
// copy and its share of one sort, whatever the number of runs, and a seek is
// a binary search with no node-record reads. The runs of neighbouring
// numbers share pages, so a page stays pinned across the blocks it holds.
type sortedScanner struct {
	store *Store
	ctx   context.Context
	runs  []postingsRun // until loaded
	ids   []xmltree.NodeID
	i     int
}

// load reads and sorts the runs once.
func (m *sortedScanner) load() error {
	if m.runs == nil {
		return nil
	}
	total := 0
	for _, r := range m.runs {
		total += r.count
	}
	ids := make([]xmltree.NodeID, total)
	n, blocks := 0, 0
	pool := m.store.pool
	var pg *Page
	var pinned PageID
	for _, r := range m.runs {
		for _, ref := range r.blocks {
			if pg == nil || ref.page != pinned {
				if pg != nil {
					pool.Unpin(pinned, false)
				}
				var err error
				if pg, err = pool.GetCtx(m.ctx, ref.page); err != nil {
					return err
				}
				pinned = ref.page
			}
			if err := decodeBlock(pg[PageHeaderSize:], ref, ids[n:]); err != nil {
				pool.Unpin(pinned, false)
				return err
			}
			n += int(ref.n)
			blocks++
		}
	}
	if pg != nil {
		pool.Unpin(pinned, false)
	}
	m.store.shared.blocksDecoded.Add(uint64(blocks))
	slices.Sort(ids)
	m.ids, m.runs = ids, nil
	return nil
}

// Next implements ValueScanner.
func (m *sortedScanner) Next() (xmltree.NodeID, NodeRecord, bool, error) {
	if err := m.load(); err != nil || m.i == len(m.ids) {
		return 0, NodeRecord{}, false, err
	}
	id := m.ids[m.i]
	rec, err := m.store.NodeCtx(m.ctx, id)
	if err != nil {
		return 0, NodeRecord{}, false, err
	}
	m.i++
	return id, rec, true, nil
}

// NextBlock implements ValueScanner.
func (m *sortedScanner) NextBlock(ids []xmltree.NodeID) (int, error) {
	if err := m.load(); err != nil {
		return 0, err
	}
	n := copy(ids, m.ids[m.i:])
	m.i += n
	return n, nil
}

// SeekGE implements ValueScanner.
func (m *sortedScanner) SeekGE(id xmltree.NodeID) (int, error) {
	if err := m.load(); err != nil {
		return 0, err
	}
	k, _ := slices.BinarySearch(m.ids[m.i:], id)
	m.i += k
	return k, nil
}
