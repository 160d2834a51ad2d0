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
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// EvalPredicate reports whether a node text value satisfies (op, rhs).
// Comparison is numeric when both sides parse as numbers (ParseNumeric) and
// lexicographic otherwise; CmpContains is substring containment.
func EvalPredicate(v string, op CmpOp, rhs string) bool {
	switch op {
	case CmpNone:
		return true
	case CmpContains:
		return strings.Contains(v, rhs)
	}
	var c int
	if fa, ok := ParseNumeric(v); ok {
		if fb, ok := ParseNumeric(rhs); ok {
			switch {
			case fa < fb:
				c = -1
			case fa > fb:
				c = 1
			}
			return cmpHolds(c, op)
		}
	}
	c = strings.Compare(v, rhs)
	return cmpHolds(c, op)
}

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
