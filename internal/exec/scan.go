package exec

import (
	"fmt"

	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// IndexScan retrieves all candidates for one pattern node in document order.
// It is the paper's "index access" leaf with cost f_I · n, read through one
// of two access paths. The tag path scans the element-tag index and applies
// the node's value predicate (if any) on the fly. The probe path, which a
// plan asks for with a ValueIndex leaf, reads the store's (tag, value)
// content index: only the postings that satisfy the predicate, with no
// predicate evaluated per row (predicate pushdown). When the store cannot
// serve the probe — value index disabled, or the predicate outside the
// index's eligible forms — the leaf falls back to the tag path, so a plan
// carrying ValueIndex leaves is always executable.
type IndexScan struct {
	pat    *pattern.Pattern
	node   int // pattern node fed by this scan
	schema *Schema

	ctx  *Context
	pred pattern.Predicate    // the node's predicate, compiled in Open for the tag path
	scan storage.ValueScanner // the probe, or the tag's postings
	blk  []xmltree.NodeID     // posting block, borrowed from the scratch

	probe  bool // the probe path: asked for by the plan, then whether the store served it
	filter bool // a tag scan of a predicated node
	done   bool
}

// NewIndexScan builds a tag scan for pattern node u of pat.
func NewIndexScan(pat *pattern.Pattern, u int) *IndexScan {
	return &IndexScan{pat: pat, node: u, schema: NewSchema(u)}
}

// buildLeaf compiles an OpIndexScan plan node, honouring its access path.
func buildLeaf(pat *pattern.Pattern, n *plan.Node) (Operator, error) {
	u := n.PatternNode
	if u < 0 || u >= pat.N() {
		return nil, fmt.Errorf("exec: scan of pattern node %d out of range", u)
	}
	// Caller-built plans reach Build without plan.Validate: a probe leaf
	// needs a predicate to probe with.
	if n.ValueIndex && pat.Nodes[u].Op == pattern.CmpNone {
		return nil, fmt.Errorf("exec: value-index scan of pattern node %d, which has no predicate", u)
	}
	s := NewIndexScan(pat, u)
	s.probe = n.ValueIndex
	return s, nil
}

// Schema implements Operator.
func (s *IndexScan) Schema() *Schema { return s.schema }

// Open implements Operator: a probe leaf asks the store for the probe and
// falls back to the tag scan if the store declines.
func (s *IndexScan) Open(ctx *Context) error {
	s.ctx = ctx
	nd := &s.pat.Nodes[s.node]
	if s.probe {
		if vs, ok := ctx.Store.ProbeValueCtx(ctx.Ctx, nd.Tag, nd.Op, nd.Value); ok {
			s.scan = vs
			ctx.Stats.ValueProbes++
			return nil
		}
		s.probe = false
	}
	tag, ok := ctx.Doc.LookupTag(nd.Tag)
	if !ok {
		s.done = true // unknown tag: empty candidate stream
		return nil
	}
	s.filter = nd.Op != pattern.CmpNone
	s.pred = pattern.CompilePredicate(nd.Op, nd.Value)
	s.scan = ctx.Store.ScanTagCtx(ctx.Ctx, tag)
	return nil
}

// NextBatch implements Operator: postings are pulled a page-sized block at a
// time straight off the index (no per-posting virtual dispatch, and — for
// probes and predicate-free scans — no node-record reads at all), then
// appended to the batch in a tight loop. Interrupt is polled once per block,
// so a cancelled query stops even inside a selective scan that fills no
// batch for the driver's own poll to observe.
func (s *IndexScan) NextBatch(b *Batch) error {
	b.Reset()
	if s.done {
		return nil
	}
	if s.blk == nil {
		s.blk = s.ctx.scratch.ids(BatchRows)
	}
	for !b.Full() {
		if s.ctx.Interrupt != nil {
			if err := s.ctx.Interrupt(); err != nil {
				return err
			}
		}
		n, err := s.scan.NextBlock(s.blk[:b.Room()])
		if err != nil {
			return s.scanErr(err)
		}
		if n == 0 {
			s.done = true
			return nil
		}
		s.ctx.Stats.ScannedTuples += n
		if !s.filter {
			b.AppendIDs(s.blk[:n])
			continue
		}
		doc := s.ctx.Doc
		for _, id := range s.blk[:n] {
			if s.pred.Match(doc.Value(id)) {
				b.AppendID(id)
			}
		}
	}
	return nil
}

// SeekGE implements Seeker: the scan jumps over every posting below id with
// a search in the index instead of reading them.
func (s *IndexScan) SeekGE(id xmltree.NodeID) (int, error) {
	if s.done {
		return 0, nil
	}
	skipped, err := s.scan.SeekGE(id)
	if err != nil {
		return 0, s.scanErr(err)
	}
	s.ctx.Stats.SkippedTuples += skipped
	return skipped, nil
}

// scanErr names the access path and the tag of a failed read.
func (s *IndexScan) scanErr(err error) error {
	path := "index scan"
	if s.probe {
		path = "value-index scan"
	}
	return fmt.Errorf("exec: %s of %q: %w", path, s.pat.Nodes[s.node].Tag, err)
}

// Close implements Operator.
func (s *IndexScan) Close() error { return nil }
