package pattern

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// buildFig1 builds the paper's Figure-1 pattern with children inserted in
// the given sibling order, producing structurally identical patterns under
// different node numberings.
func buildFig1(order [2]string) *Pattern {
	b := NewBuilder("manager")
	for _, tag := range order {
		switch tag {
		case "dept":
			d := b.Kid(b.Root(), "department")
			b.Kid(d, "name")
		case "emp":
			e := b.Desc(b.Root(), "employee")
			b.Where(b.Kid(e, "salary"), CmpGe, "50000")
		}
	}
	return b.Pattern()
}

func TestFingerprintInvariantUnderRenumbering(t *testing.T) {
	a := buildFig1([2]string{"dept", "emp"})
	c := buildFig1([2]string{"emp", "dept"})
	fpA, canonA := Fingerprint(a)
	fpC, canonC := Fingerprint(c)
	if fpA != fpC {
		t.Fatalf("fingerprints differ for isomorphic patterns:\n%s\n%s", fpA, fpC)
	}
	// The composed mapping a-node -> canonical -> c-node must be an
	// isomorphism: same tags, predicates and axes edge by edge.
	invC := InversePermutation(canonC)
	iso := make([]int, a.N())
	for u := 0; u < a.N(); u++ {
		iso[u] = invC[canonA[u]]
	}
	for u := 0; u < a.N(); u++ {
		v := iso[u]
		if a.Nodes[u] != c.Nodes[v] {
			t.Fatalf("node %d maps to %d with different label: %+v vs %+v",
				u, v, a.Nodes[u], c.Nodes[v])
		}
		if u == 0 {
			continue
		}
		if iso[a.Parent[u]] != c.Parent[v] {
			t.Fatalf("edge into %d not preserved: parent %d -> %d, want %d",
				u, a.Parent[u], c.Parent[v], iso[a.Parent[u]])
		}
		if a.Axis[u] != c.Axis[v] {
			t.Fatalf("axis of edge into %d not preserved", u)
		}
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	base := MustParse("//manager//employee/name")
	variants := []string{
		"//manager/employee/name",            // axis change
		"//manager//employee/salary",         // tag change
		"//manager//employee/name#",          // order-by change
		`//manager//employee/name[. >= "x"]`, // predicate added
		"//manager//employee",                // node removed
		"//manager[.//employee]/name",        // shape change
		`//manager//employee/name[. = "x"]`,  // different op than >=
	}
	fpBase, _ := Fingerprint(base)
	for _, src := range variants {
		p := MustParse(src)
		fp, _ := Fingerprint(p)
		if fp == fpBase {
			t.Errorf("pattern %q collides with base fingerprint", src)
		}
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	p := MustParse(`//a[b/c][.//d[. = "1"]]//e`)
	fp1, canon1 := Fingerprint(p)
	fp2, canon2 := Fingerprint(p)
	if fp1 != fp2 {
		t.Fatal("fingerprint not deterministic")
	}
	for i := range canon1 {
		if canon1[i] != canon2[i] {
			t.Fatal("canonical permutation not deterministic")
		}
	}
	// canon must be a permutation of 0..n-1 with the root first.
	if canon1[0] != 0 {
		t.Fatalf("root must map to canonical index 0, got %d", canon1[0])
	}
	seen := make([]bool, len(canon1))
	for _, c := range canon1 {
		if c < 0 || c >= len(seen) || seen[c] {
			t.Fatalf("canon is not a permutation: %v", canon1)
		}
		seen[c] = true
	}
}

func TestFingerprintSingleNode(t *testing.T) {
	p := MustParse("/doc")
	fp, canon := Fingerprint(p)
	if fp == "" || len(canon) != 1 || canon[0] != 0 {
		t.Fatalf("single-node fingerprint: %q %v", fp, canon)
	}
}

// fingerprintFmt is Fingerprint as it was first written — every node
// formatted with fmt into its own strings.Builder. Plan-cache keys are
// fingerprints, so the one-buffer rewrite is held to it byte for byte.
func fingerprintFmt(p *Pattern) (string, []int) {
	n := p.N()
	kids := make([][]int, n)
	for v := 1; v < n; v++ {
		kids[p.Parent[v]] = append(kids[p.Parent[v]], v)
	}
	enc := make([]string, n)
	var encode func(u int, root bool) string
	encode = func(u int, root bool) string {
		var sb strings.Builder
		if root {
			sb.WriteString("/")
		} else {
			sb.WriteString(p.Axis[u].String())
		}
		fmt.Fprintf(&sb, "%q", p.Nodes[u].Tag)
		if p.Nodes[u].Op != CmpNone {
			fmt.Fprintf(&sb, "[%d %q]", p.Nodes[u].Op, p.Nodes[u].Value)
		}
		if p.OrderBy == u {
			sb.WriteString("#")
		}
		subs := make([]string, len(kids[u]))
		for i, c := range kids[u] {
			subs[i] = encode(c, false)
		}
		sort.Strings(subs)
		sb.WriteString("(")
		sb.WriteString(strings.Join(subs, ","))
		sb.WriteString(")")
		enc[u] = sb.String()
		return enc[u]
	}
	fp := encode(0, true)

	canon := make([]int, n)
	next := 0
	var assign func(u int)
	assign = func(u int) {
		canon[u] = next
		next++
		order := append([]int(nil), kids[u]...)
		sort.Slice(order, func(i, j int) bool {
			if enc[order[i]] != enc[order[j]] {
				return enc[order[i]] < enc[order[j]]
			}
			return order[i] < order[j]
		})
		for _, c := range order {
			assign(c)
		}
	}
	assign(0)
	return fp, canon
}

// fingerprintCorpus is every pattern the fingerprint tests use, the
// benchmark's plan_cold twigs, and seeded random trees whose tags and
// constants need every kind of quoting.
func fingerprintCorpus() []*Pattern {
	pats := []*Pattern{
		buildFig1([2]string{"dept", "emp"}),
		buildFig1([2]string{"emp", "dept"}),
	}
	for _, src := range []string{
		"//manager//employee/name",
		"//manager/employee/name",
		"//manager//employee/salary",
		"//manager//employee/name#",
		`//manager//employee/name[. >= "x"]`,
		"//manager//employee",
		"//manager[.//employee]/name",
		`//manager//employee/name[. = "x"]`,
		`//a[b/c][.//d[. = "1"]]//e`,
		"/doc",
		"//a[b][b][b/c][b/c]", // identical siblings: canon breaks the tie by node number
		planColdTwig,
	} {
		pats = append(pats, MustParse(src))
	}
	rng := rand.New(rand.NewSource(7))
	tags := []string{"a", "b", "name", "é", `q"uote`, "tab\there", "\u2028", "sp ace", "b"}
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(16)
		b := NewBuilder(tags[rng.Intn(len(tags))])
		for v := 1; v < n; v++ {
			var h BuilderNode
			if rng.Intn(2) == 0 {
				h = b.Kid(BuilderNode(rng.Intn(v)), tags[rng.Intn(len(tags))])
			} else {
				h = b.Desc(BuilderNode(rng.Intn(v)), tags[rng.Intn(len(tags))])
			}
			if rng.Intn(3) == 0 {
				b.Where(h, CmpOp(1+rng.Intn(6)), tags[rng.Intn(len(tags))])
			}
		}
		if rng.Intn(2) == 0 {
			b.OrderBy(BuilderNode(rng.Intn(n)))
		}
		pats = append(pats, b.Pattern())
	}
	return pats
}

const planColdTwig = `//manager[name][employee[name][salary>110000]][department[name]]//manager[name][employee[name]]/department`

func TestFingerprintGolden(t *testing.T) {
	for _, p := range fingerprintCorpus() {
		fp, canon := Fingerprint(p)
		wantFP, wantCanon := fingerprintFmt(p)
		if fp != wantFP {
			t.Errorf("%s: fingerprint\n got %s\nwant %s", p, fp, wantFP)
		}
		if !slices.Equal(canon, wantCanon) {
			t.Errorf("%s: canon %v, want %v", p, canon, wantCanon)
		}
	}
}

// BenchmarkFingerprint is the pattern.fingerprint_us lane: one plan_cold twig
// (12 nodes), as the plan cache keys it on every query.
func BenchmarkFingerprint(b *testing.B) {
	p := MustParse(planColdTwig)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if fp, _ := Fingerprint(p); fp == "" {
			b.Fatal("empty fingerprint")
		}
	}
}
