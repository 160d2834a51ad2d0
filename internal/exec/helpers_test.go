package exec

// Slot-order []Tuple helpers for the operator tests, which inspect raw
// operator output rather than the pattern-order MatchSet Collect returns.

// Drain runs op tuple-at-a-time and returns its output in schema order.
func Drain(ctx *Context, op Operator) ([]Tuple, error) {
	var out []Tuple
	if err := pullTuples(ctx, op, func(t Tuple) { out = append(out, t) }); err != nil {
		return nil, err
	}
	ctx.Stats.OutputTuples = len(out)
	return out, nil
}

// DrainBatched is Drain over the batched path; rows are copied out of the
// reused batch.
func DrainBatched(ctx *Context, op Operator) ([]Tuple, error) {
	var out []Tuple
	err := pullBatches(ctx, op, func(b *Batch) {
		for i := 0; i < b.Len(); i++ {
			out = append(out, append(Tuple(nil), b.Row(i)...))
		}
	})
	if err != nil {
		return nil, err
	}
	ctx.Stats.OutputTuples = len(out)
	return out, nil
}

// Normalize reorders one tuple from the schema's slot layout to
// pattern-node order.
func Normalize(s *Schema, n int, t Tuple) Tuple {
	out := make(Tuple, n)
	for slot, pn := range s.Cols() {
		out[pn] = t[slot]
	}
	return out
}

// NormalizeAll applies Normalize to every tuple.
func NormalizeAll(s *Schema, n int, ts []Tuple) []Tuple {
	out := make([]Tuple, len(ts))
	for i, t := range ts {
		out[i] = Normalize(s, n, t)
	}
	return out
}

// tuples adapts a (MatchSet, error) result to the []Tuple form the tests
// compare: got, err := tuples(Run(...)).
func tuples(m MatchSet, err error) ([]Tuple, error) { return m.Tuples(), err }
