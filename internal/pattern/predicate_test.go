package pattern

import (
	"strconv"
	"testing"
)

// ParseNumeric refuses by its first byte what strconv.ParseFloat would
// refuse after allocating an error; the two must agree on everything.
func TestParseNumericMatchesParseFloat(t *testing.T) {
	words := []string{
		"", "0", "7", "-3", "+4", ".5", "5.", "1e3", "1E-3", "0x1p-2", "0X1P2", "1_000", "0x_1p0", "_1",
		"inf", "Inf", "+INF", "-infinity", "Infinity", "nan", "NaN", "NAN", "nano", "info", "i", "n",
		"mgr-12", "emp-7", "dept-3", " 1", "1 ", "e5", "E5", "x1", "١", "１", "--1", "+-1", "-.5e+7", ".", "-", "+",
	}
	for c := 0; c < 256; c++ {
		words = append(words, string([]byte{byte(c)}), string([]byte{byte(c), '1'}), string([]byte{byte(c), 'n', 'f'}))
	}
	for _, w := range words {
		want, err := strconv.ParseFloat(w, 64)
		got, ok := ParseNumeric(w)
		if ok != (err == nil) || (ok && got != want && (got == got || want == want)) {
			t.Errorf("ParseNumeric(%q) = %v, %v; ParseFloat says %v, %v", w, got, ok, want, err)
		}
	}
}
