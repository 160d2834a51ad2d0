// Package cost implements the paper's cost model (§2.2.2) for the physical
// operations a structural join plan is made of:
//
//	Index access                cost = f_I  · n
//	Sort                        cost = n·log₂n · f_s
//	Stack-Tree-Desc join        cost = 2·|A| · f_st
//	Stack-Tree-Anc join         cost = 2·|AB| · f_IO + 2·|A| · f_st
//
// where |A| is the cardinality of the ancestor-side input and |AB| the join
// result cardinality. The f-factors normalise heterogeneous physical
// operations onto one scale. The paper notes the constants "are dependent on
// the system implementation"; this package ships one set, DefaultModel,
// measured against this library's executor, and every plan is priced with it.
package cost

import (
	"math"
)

// Model carries the normalisation factors of the paper's cost model: the
// four factors of §2.2.2 plus FSC, a small per-tuple streaming term. The
// paper's Stack-Tree formulas keep only each algorithm's dominant terms;
// §2.2.1 states the full cost is "a linear function of the sizes of the
// inputs and the size of the output", and FSC supplies exactly those linear
// terms. It is an order of magnitude below the dominant factors, so it
// never overturns the paper's formulas — it breaks their ties in favour of
// smaller intermediate results, which is what the executor rewards.
//
// A zero Model is unusable; use DefaultModel.
type Model struct {
	FI  float64 // per item retrieved through an index
	FS  float64 // per item·log₂(items) sorted
	FIO float64 // per item of buffered join output written+read (Anc lists)
	FST float64 // per stack operation in a Stack-Tree join
	FSC float64 // per tuple streamed into or out of a join
	FV  float64 // per item retrieved through a value-index probe
}

// DefaultModel returns factors measured against this library's executor on
// commodity x86-64. Only ratios matter for plan choice; the absolute scale
// approximates nanoseconds.
func DefaultModel() Model {
	return Model{
		FI:  60, // tag-index posting: block decode; regions come from memory, no node page is read
		FS:  25, // comparison sort per item·log₂n
		FIO: 45, // buffered pair written + read back
		FST: 30, // push+pop bookkeeping per input tuple
		FSC: 4,  // merge-step and output-tuple construction
		FV:  75, // value-probe posting: block decode + possible merge step
	}
}

// IndexAccess returns the cost of retrieving n items through a tag index.
func (m Model) IndexAccess(n float64) float64 { return m.FI * n }

// ValueProbe returns the cost of retrieving n items through a value-index
// probe. A probed posting is slightly more expensive than a tag-index
// posting (smaller blocks decode worse, and multi-run probes pay a merge
// step), so FV defaults above FI — the probe wins on cardinality, not on
// per-item rate. A Model literal that leaves FV zero, as the optimizer
// tests' hand-built models do, prices a probe at 1.25·FI.
func (m Model) ValueProbe(n float64) float64 {
	fv := m.FV
	if fv <= 0 {
		fv = 1.25 * m.FI
	}
	return fv * n
}

// Sort returns the cost of sorting n items.
func (m Model) Sort(n float64) float64 {
	if n <= 1 {
		return 0
	}
	return n * math.Log2(n) * m.FS
}

// StackTreeDesc returns the cost of a Stack-Tree-Desc join with
// ancestor-side input cardinality a, descendant-side input cardinality b
// and output cardinality ab: the paper's 2·|A|·f_st dominant term plus the
// linear streaming terms.
func (m Model) StackTreeDesc(a, b, ab float64) float64 {
	return 2*a*m.FST + (a+b+ab)*m.FSC
}

// StackTreeAnc returns the cost of a Stack-Tree-Anc join with the same
// cardinalities. The 2·|AB|·f_IO term pays for writing and re-reading the
// self/inherit lists that Anc buffers to emit output in ancestor order.
func (m Model) StackTreeAnc(a, b, ab float64) float64 {
	return 2*ab*m.FIO + 2*a*m.FST + (a+b+ab)*m.FSC
}

// Valid reports whether all factors are positive.
func (m Model) Valid() bool {
	return m.FI > 0 && m.FS > 0 && m.FIO > 0 && m.FST > 0 && m.FSC > 0
}
