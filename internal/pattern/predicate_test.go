package pattern

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// ParseNumeric refuses by its first byte what strconv.ParseFloat would
// refuse after allocating an error, and converts short digit strings itself;
// the two must agree on everything.
func TestParseNumericMatchesParseFloat(t *testing.T) {
	for _, w := range parseNumericWords() {
		want, err := strconv.ParseFloat(w, 64)
		got, ok := ParseNumeric(w)
		if ok != (err == nil) || (ok && got != want && (got == got || want == want)) {
			t.Errorf("ParseNumeric(%q) = %v, %v; ParseFloat says %v, %v", w, got, ok, want, err)
		}
	}
}

// parseNumericWords is the table of edge cases, shared with FuzzParseNumeric
// as its seed corpus.
func parseNumericWords() []string {
	words := []string{
		"", "0", "7", "-3", "+4", ".5", "5.", "1e3", "1E-3", "0x1p-2", "0X1P2", "1_000", "0x_1p0", "_1",
		"inf", "Inf", "+INF", "-infinity", "Infinity", "nan", "NaN", "NAN", "nano", "info", "i", "n",
		"mgr-12", "emp-7", "dept-3", " 1", "1 ", "e5", "E5", "x1", "١", "１", "--1", "+-1", "-.5e+7", ".", "-", "+",
		// Around the digit fast path: leading zeros, the longest string it
		// takes (15 digits), the first it leaves to ParseFloat (16, where
		// float64 starts rounding), digits it must not take for ASCII ones.
		"000123", "000000000000000", "999999999999999", "123456789012345", "1234567890123456", "9007199254740993", "12a", "１２",
	}
	for c := 0; c < 256; c++ {
		words = append(words, string([]byte{byte(c)}), string([]byte{byte(c), '1'}), string([]byte{byte(c), 'n', 'f'}))
	}
	return words
}

// referenceEval is the predicate semantics as they were written before the
// compiled form: both sides parsed at every evaluation.
func referenceEval(v string, op CmpOp, rhs string) bool {
	switch op {
	case CmpNone:
		return true
	case CmpContains:
		return strings.Contains(v, rhs)
	}
	if fa, ok := ParseNumeric(v); ok {
		if fb, ok := ParseNumeric(rhs); ok {
			c := 0
			switch {
			case fa < fb:
				c = -1
			case fa > fb:
				c = 1
			}
			return cmpHolds(c, op)
		}
	}
	return cmpHolds(strings.Compare(v, rhs), op)
}

// TestCompiledPredicateMatchesReference holds the compiled predicate, and the
// EvalPredicate and MatchesValue wrappers over it, to the per-evaluation
// semantics on every operator and every pairing of numeric, non-numeric,
// inf/nan and empty operands — after pinning that semantics itself on a few
// hand-checked cases.
func TestCompiledPredicateMatchesReference(t *testing.T) {
	for _, c := range []struct {
		v    string
		op   CmpOp
		rhs  string
		want bool
	}{
		{"42", CmpEq, "42", true},
		{"42", CmpEq, "042", true}, // numeric comparison
		{"42", CmpNe, "41", true},
		{"9", CmpLt, "10", true}, // numeric, not lexicographic
		{"abc", CmpLt, "abd", true},
		{"10", CmpGe, "10", true},
		{"3.5", CmpGt, "3", true},
		{"hello world", CmpContains, "lo wo", true},
		{"hello", CmpContains, "xyz", false},
		{"x", CmpNone, "", true},
		{"b", CmpLe, "a", false},
	} {
		if got := EvalPredicate(c.v, c.op, c.rhs); got != c.want || referenceEval(c.v, c.op, c.rhs) != c.want {
			t.Errorf("EvalPredicate(%q, %v, %q) = %v, want %v", c.v, c.op, c.rhs, got, c.want)
		}
	}
	words := []string{
		"", "0", "7", "07", "7.0", "-3", "+4", "1e3", "1000", "110000", "99999", "0x1p-2",
		"inf", "-Inf", "+INF", "nan", "NaN", "nano", "info",
		"mgr-12", "emp-7", "a", "b", "ab", " 7", "7 ", "~", "a~b",
	}
	ops := []CmpOp{CmpNone, CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe, CmpContains}
	for _, op := range ops {
		for _, rhs := range words {
			p := CompilePredicate(op, rhs)
			nd := Node{Op: op, Value: rhs}
			for _, v := range words {
				want := referenceEval(v, op, rhs)
				if got := p.Match(v); got != want {
					t.Errorf("CompilePredicate(%v, %q).Match(%q) = %v, want %v", op, rhs, v, got, want)
				}
				if EvalPredicate(v, op, rhs) != want || nd.MatchesValue(v) != want {
					t.Errorf("EvalPredicate/MatchesValue(%q %v %q) != %v", v, op, rhs, want)
				}
			}
		}
	}
}

// FuzzParseNumeric holds the digit fast path to strconv.ParseFloat bit for
// bit: the same accept/refuse decision and, when accepted, the same float64.
func FuzzParseNumeric(f *testing.F) {
	for _, w := range parseNumericWords() {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := strconv.ParseFloat(s, 64)
		got, ok := ParseNumeric(s)
		if ok != (err == nil) || (ok && math.Float64bits(got) != math.Float64bits(want)) {
			t.Fatalf("ParseNumeric(%q) = %v, %v; ParseFloat says %v, %v", s, got, ok, want, err)
		}
	})
}

// BenchmarkParseNumeric is the predicate layer lane: the words a salary or
// name filter sees, per call.
func BenchmarkParseNumeric(b *testing.B) {
	for _, lane := range []struct{ name, word string }{
		{"digits", "104250"},
		{"decimal", "104250.5"},
		{"non-numeric", "emp-104250"},
	} {
		b.Run(lane.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := ParseNumeric(lane.word); ok != (lane.name != "non-numeric") {
					b.Fatal(lane.word)
				}
			}
		})
	}
}
