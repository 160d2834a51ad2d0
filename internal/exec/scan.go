package exec

import (
	"fmt"

	"sjos/internal/pattern"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// IndexScan retrieves all candidates for one pattern node through the
// element-tag index, in document order, applying the node's value predicate
// (if any) on the fly. It is the paper's "index access" leaf with cost
// f_I · n.
type IndexScan struct {
	node   int // pattern node fed by this scan
	tag    string
	op     pattern.CmpOp
	value  string
	schema *Schema

	ctx  *Context
	pred pattern.Predicate // (op, value), compiled in Open
	scan *storage.TagScanner
	done bool
	blk  []xmltree.NodeID // posting block, borrowed from the scratch
}

// NewIndexScan builds a scan for pattern node u of pat.
func NewIndexScan(pat *pattern.Pattern, u int) *IndexScan {
	nd := pat.Nodes[u]
	return &IndexScan{
		node:   u,
		tag:    nd.Tag,
		op:     nd.Op,
		value:  nd.Value,
		schema: NewSchema(u),
	}
}

// Schema implements Operator.
func (s *IndexScan) Schema() *Schema { return s.schema }

// Open implements Operator.
func (s *IndexScan) Open(ctx *Context) error {
	s.ctx = ctx
	s.pred = pattern.CompilePredicate(s.op, s.value)
	tag, ok := ctx.Doc.LookupTag(s.tag)
	if !ok {
		s.done = true // unknown tag: empty candidate stream
		return nil
	}
	s.scan = ctx.Store.ScanTagCtx(ctx.Ctx, tag)
	return nil
}

// NextBatch implements Operator: postings are pulled a page-sized block at a
// time straight off the index (no per-posting virtual dispatch, and — for
// predicate-free scans — no node-record reads at all), then appended to the
// batch in a tight loop. Interrupt is polled once per block, so a cancelled
// query stops even inside a selective scan that fills no batch for the
// driver's own poll to observe.
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
			return fmt.Errorf("exec: index scan of %q: %w", s.tag, err)
		}
		if n == 0 {
			s.done = true
			return nil
		}
		s.ctx.Stats.ScannedTuples += n
		if s.op == pattern.CmpNone {
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
func (s *IndexScan) SeekGE(id xmltree.NodeID) (int, bool, error) {
	if s.done {
		return 0, true, nil
	}
	skipped, err := s.scan.SeekGE(id)
	if err != nil {
		return 0, false, fmt.Errorf("exec: index scan of %q: %w", s.tag, err)
	}
	s.ctx.Stats.SkippedTuples += skipped
	return skipped, true, nil
}

// Close implements Operator.
func (s *IndexScan) Close() error { return nil }
