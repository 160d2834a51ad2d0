package pattern

import (
	"strconv"
	"strings"
)

// This file is the single definition of value-predicate semantics. The
// executor's scan filter, the reference matcher, the selectivity estimator
// and the value index's eligibility/probe logic all evaluate predicates
// through it, so an index probe can never drift from scan+filter semantics.

// ParseNumeric reports whether s is a numeric value under the predicate
// semantics (strconv.ParseFloat, 64-bit) and returns the parsed number.
// Every component that decides "numeric vs lexicographic" must use this one
// parse so they agree on edge cases (exponents, leading signs, "Inf", ...).
func ParseNumeric(s string) (float64, bool) {
	// A float starts with a digit, a sign, a point, or the i/n of inf and
	// nan. Anything else ParseFloat would refuse too, but only after
	// allocating the error that says so — and index builds and scan+filter
	// ask this of every word in a document.
	if s == "" {
		return 0, false
	}
	switch c := s[0]; {
	case '0' <= c && c <= '9', c == '+', c == '-', c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
	default:
		return 0, false
	}
	// One to fifteen plain digits — most numeric values in a document — are
	// an integer below 2^53, which float64 holds exactly: accumulate it.
	// Anything else (sign, point, exponent, "Inf", longer) is ParseFloat's.
	if len(s) <= 15 {
		n, i := uint64(0), 0
		for ; i < len(s) && s[i]-'0' <= 9; i++ {
			n = n*10 + uint64(s[i]-'0')
		}
		if i == len(s) {
			return float64(n), true
		}
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// Predicate is a value predicate (op, rhs) with the constant's side of the
// numeric-vs-lexicographic decision made once: a scan that filters a
// million values parses rhs one time, not a million.
type Predicate struct {
	op      CmpOp
	rhs     string
	num     float64 // rhs as a number, when numeric
	numeric bool
}

// CompilePredicate fixes (op, rhs) for repeated evaluation.
func CompilePredicate(op CmpOp, rhs string) Predicate {
	p := Predicate{op: op, rhs: rhs}
	if op != CmpNone && op != CmpContains {
		p.num, p.numeric = ParseNumeric(rhs)
	}
	return p
}

// Match reports whether a node text value satisfies the predicate.
// Comparison is numeric when both sides parse as numbers (ParseNumeric) and
// lexicographic otherwise; CmpContains is substring containment.
func (p Predicate) Match(v string) bool {
	switch p.op {
	case CmpNone:
		return true
	case CmpContains:
		return strings.Contains(v, p.rhs)
	}
	if p.numeric {
		if f, ok := ParseNumeric(v); ok {
			var c int
			switch {
			case f < p.num:
				c = -1
			case f > p.num:
				c = 1
			}
			return cmpHolds(c, p.op)
		}
	}
	return cmpHolds(strings.Compare(v, p.rhs), p.op)
}

// EvalPredicate reports whether a node text value satisfies (op, rhs): one
// evaluation of the compiled form.
func EvalPredicate(v string, op CmpOp, rhs string) bool { return CompilePredicate(op, rhs).Match(v) }

func cmpHolds(c int, op CmpOp) bool {
	switch op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	}
	return false
}

// MatchesValue reports whether a document node with text value v satisfies
// the pattern node's value predicate (trivially true for CmpNone).
func (nd Node) MatchesValue(v string) bool {
	return EvalPredicate(v, nd.Op, nd.Value)
}
