package exec

import (
	"fmt"

	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// ValueIndexScan retrieves the candidates for a predicated pattern node by
// probing the store's (tag, value) content index: only the postings that
// satisfy the predicate are read, and no predicate is evaluated per row
// (predicate pushdown). When the store cannot serve the probe — value index
// disabled, or the predicate outside the index's eligible forms — the
// operator falls back to the embedded IndexScan's scan+filter, so a plan
// carrying ValueIndex leaves is always executable.
type ValueIndexScan struct {
	IndexScan
	probe storage.ValueScanner // non-nil once Open chose the probe path
}

// NewValueIndexScan builds a value-index probe for pattern node u of pat.
func NewValueIndexScan(pat *pattern.Pattern, u int) (*ValueIndexScan, error) {
	if pat.Nodes[u].Op == pattern.CmpNone {
		return nil, fmt.Errorf("exec: value-index scan of pattern node %d, which has no predicate", u)
	}
	return &ValueIndexScan{IndexScan: *NewIndexScan(pat, u)}, nil
}

// Open implements Operator: it asks the store for a probe and falls back to
// the tag scan if the store declines.
func (s *ValueIndexScan) Open(ctx *Context) error {
	if ctx.Store != nil {
		if vs, ok := ctx.Store.ProbeValueCtx(ctx.Ctx, s.tag, s.op, s.value); ok {
			s.ctx = ctx
			s.probe = vs
			ctx.Stats.ValueProbes++
			return nil
		}
	}
	return s.IndexScan.Open(ctx)
}

// NextBatch implements Operator: the batch is filled straight from decoded
// postings blocks — probed postings satisfy the predicate by construction, so
// there is no predicate loop and no node-record read.
func (s *ValueIndexScan) NextBatch(b *Batch) error {
	if s.probe == nil {
		return s.IndexScan.NextBatch(b)
	}
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
		n, err := s.probe.NextBlock(s.blk[:b.Room()])
		if err != nil {
			return fmt.Errorf("exec: value-index scan of %q: %w", s.tag, err)
		}
		if n == 0 {
			s.done = true
			return nil
		}
		s.ctx.Stats.ScannedTuples += n
		b.AppendIDs(s.blk[:n])
	}
	return nil
}

// SeekGE implements Seeker on the probe path (the fallback delegates).
func (s *ValueIndexScan) SeekGE(id xmltree.NodeID) (int, bool, error) {
	if s.probe == nil {
		return s.IndexScan.SeekGE(id)
	}
	if s.done {
		return 0, true, nil
	}
	skipped, err := s.probe.SeekGE(id)
	if err != nil {
		return 0, false, fmt.Errorf("exec: value-index scan of %q: %w", s.tag, err)
	}
	s.ctx.Stats.SkippedTuples += skipped
	return skipped, true, nil
}

// buildLeaf compiles an OpIndexScan plan node, honouring its access path.
func buildLeaf(pat *pattern.Pattern, n *plan.Node) (Operator, error) {
	if n.PatternNode < 0 || n.PatternNode >= pat.N() {
		return nil, fmt.Errorf("exec: scan of pattern node %d out of range", n.PatternNode)
	}
	if n.ValueIndex {
		return NewValueIndexScan(pat, n.PatternNode)
	}
	return NewIndexScan(pat, n.PatternNode), nil
}
