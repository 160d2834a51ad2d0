package cost

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultModelValid(t *testing.T) {
	if !DefaultModel().Valid() {
		t.Fatal("DefaultModel must be valid")
	}
	if (Model{}).Valid() {
		t.Fatal("zero model must be invalid")
	}
}

func TestFormulas(t *testing.T) {
	m := Model{FI: 2, FS: 3, FIO: 5, FST: 7, FSC: 1}
	if got := m.IndexAccess(10); got != 20 {
		t.Errorf("IndexAccess = %v", got)
	}
	if got := m.Sort(8); math.Abs(got-8*3*3) > 1e-9 {
		t.Errorf("Sort(8) = %v, want 72", got)
	}
	if got := m.Sort(1); got != 0 {
		t.Errorf("Sort(1) = %v, want 0", got)
	}
	if got := m.Sort(0); got != 0 {
		t.Errorf("Sort(0) = %v, want 0", got)
	}
	if got := m.StackTreeDesc(100, 30, 40); got != 2*100*7+(100+30+40)*1 {
		t.Errorf("StackTreeDesc = %v", got)
	}
	if got := m.StackTreeAnc(100, 30, 40); got != 2*40*5+2*100*7+(100+30+40)*1 {
		t.Errorf("StackTreeAnc = %v", got)
	}
}

// Anc is never cheaper than Desc on the same input — the optimizer relies
// on Desc being the baseline algorithm.
func TestAncDominatesDesc(t *testing.T) {
	m := DefaultModel()
	f := func(a, b, ab uint16) bool {
		return m.StackTreeAnc(float64(a), float64(b), float64(ab)) >=
			m.StackTreeDesc(float64(a), float64(b), float64(ab))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortMonotone(t *testing.T) {
	m := DefaultModel()
	f := func(n uint16) bool {
		a, b := float64(n), float64(n)+1
		return m.Sort(b) >= m.Sort(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
