package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sjos/internal/pattern"
	"sjos/internal/xmltree"
)

// valueDoc generates an XML document whose leaf values mix plain integers,
// alternate numeric spellings ("7.0", "07" — same numeric group as "7"),
// non-numeric strings, and absent values, so every eligibility case of the
// value index comes up.
func valueDoc(t *testing.T, rng *rand.Rand, n int) *xmltree.Document {
	t.Helper()
	tags := []string{"num", "mixed", "word"}
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < n; i++ {
		tag := tags[rng.Intn(len(tags))]
		sb.WriteString("<" + tag + ">")
		switch tag {
		case "num": // all-numeric tag: range probes eligible
			switch rng.Intn(3) {
			case 0:
				fmt.Fprintf(&sb, "%d", rng.Intn(12))
			case 1:
				fmt.Fprintf(&sb, "%d.0", rng.Intn(12)) // alternate spelling
			default:
				fmt.Fprintf(&sb, "0%d", rng.Intn(10)) // leading zero spelling
			}
		case "mixed": // numeric values but some empty/word: ranges ineligible
			switch rng.Intn(3) {
			case 0:
				fmt.Fprintf(&sb, "%d", rng.Intn(12))
			case 1:
				fmt.Fprintf(&sb, "w%d", rng.Intn(6))
			default: // empty value (not indexed)
			}
		case "word":
			fmt.Fprintf(&sb, "w%d", rng.Intn(8))
		}
		sb.WriteString("</" + tag + ">")
	}
	sb.WriteString("</root>")
	doc, err := xmltree.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// scanFilterRef computes the reference answer for (tag, op, rhs): the
// document-order IDs of tag nodes whose value satisfies the predicate.
func scanFilterRef(doc *xmltree.Document, tag string, op pattern.CmpOp, rhs string) []xmltree.NodeID {
	tid, ok := doc.LookupTag(tag)
	if !ok {
		return nil
	}
	var out []xmltree.NodeID
	for _, id := range doc.NodesWithTag(tid) {
		if pattern.EvalPredicate(doc.Value(id), op, rhs) {
			out = append(out, id)
		}
	}
	return out
}

// drainProbe consumes a ValueScanner via Next and checks the records.
func drainProbe(t *testing.T, vs ValueScanner) []xmltree.NodeID {
	t.Helper()
	var out []xmltree.NodeID
	var prev xmltree.Pos
	for {
		id, rec, ok, err := vs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		if len(out) > 0 && rec.Start <= prev {
			t.Fatalf("probe results out of document order at posting %d (start %d after %d)",
				len(out), rec.Start, prev)
		}
		prev = rec.Start
		out = append(out, id)
	}
}

// TestValueProbeMatchesScanFilter is the core semantics property: whenever
// ProbeEligible says yes, the probe's result set must be byte-identical to
// scan+filter with pattern.EvalPredicate — for equality (both numeric-group
// and exact-match paths), every range op over the all-numeric tag, and both
// Next and NextBlock consumption.
func TestValueProbeMatchesScanFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	doc := valueDoc(t, rng, 4000)
	st, err := BuildStore(doc, 64)
	if err != nil {
		t.Fatal(err)
	}
	ops := []pattern.CmpOp{pattern.CmpEq, pattern.CmpLt, pattern.CmpLe, pattern.CmpGt, pattern.CmpGe}
	rhss := []string{"0", "3", "7", "7.0", "07", "11", "11.5", "-1", "99", "w3", "w9", ""}
	eligible := 0
	for _, tag := range []string{"num", "mixed", "word"} {
		for _, op := range ops {
			for _, rhs := range rhss {
				if !st.ProbeEligible(tag, op, rhs) {
					continue
				}
				eligible++
				want := scanFilterRef(doc, tag, op, rhs)
				if n, ok := st.ProbeSelectivity(tag, op, rhs); !ok || n != len(want) {
					t.Fatalf("%s %v %q: ProbeSelectivity = %d,%v, want %d", tag, op, rhs, n, ok, len(want))
				}
				vs, ok := st.ProbeValue(tag, op, rhs)
				if !ok {
					t.Fatalf("%s %v %q: eligible but ProbeValue declined", tag, op, rhs)
				}
				got := drainProbe(t, vs)
				if len(got) != len(want) {
					t.Fatalf("%s %v %q: probe found %d, scan+filter %d", tag, op, rhs, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s %v %q: posting %d = %d, want %d", tag, op, rhs, i, got[i], want[i])
					}
				}
				// Same answer through block-wise consumption.
				vs2, _ := st.ProbeValue(tag, op, rhs)
				var blk [postingsBlockLen]xmltree.NodeID
				var got2 []xmltree.NodeID
				for {
					n, err := vs2.NextBlock(blk[:])
					if err != nil {
						t.Fatal(err)
					}
					if n == 0 {
						break
					}
					got2 = append(got2, blk[:n]...)
				}
				if len(got2) != len(want) {
					t.Fatalf("%s %v %q: NextBlock found %d, want %d", tag, op, rhs, len(got2), len(want))
				}
				for i := range got2 {
					if got2[i] != want[i] {
						t.Fatalf("%s %v %q: NextBlock posting %d = %d, want %d", tag, op, rhs, i, got2[i], want[i])
					}
				}
			}
		}
	}
	if eligible == 0 {
		t.Fatal("no eligible (tag, op, rhs) combination exercised")
	}
	// The ineligible cases must all be declined: ranges over mixed/word
	// (not all-numeric), contains, not-equal, and equality with "".
	for _, c := range []struct {
		tag string
		op  pattern.CmpOp
		rhs string
	}{
		{"mixed", pattern.CmpLt, "5"},
		{"word", pattern.CmpGe, "3"},
		{"num", pattern.CmpLt, "w1"}, // non-numeric rhs range
		{"num", pattern.CmpNe, "3"},
		{"num", pattern.CmpContains, "3"},
		{"num", pattern.CmpEq, ""},
		{"absent", pattern.CmpEq, "3"},
	} {
		if st.ProbeEligible(c.tag, c.op, c.rhs) {
			t.Fatalf("%s %v %q: expected ineligible", c.tag, c.op, c.rhs)
		}
		if _, ok := st.ProbeValue(c.tag, c.op, c.rhs); ok {
			t.Fatalf("%s %v %q: ProbeValue should decline", c.tag, c.op, c.rhs)
		}
	}
}

// TestValueProbeSeekGEBlockBoundaries builds runs long enough to span
// several compressed blocks and seeks to every block-boundary-adjacent
// position, checking the probe resumes exactly at the first posting with
// Start >= pos — including on merged multi-spelling numeric runs.
func TestValueProbeSeekGEBlockBoundaries(t *testing.T) {
	// ~1500 "num" nodes over 3 spellings of 4 numeric groups: each group's
	// merged run spans multiple 128-posting blocks.
	rng := rand.New(rand.NewSource(97))
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 1500; i++ {
		g := rng.Intn(4)
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&sb, "<num>%d</num>", g)
		case 1:
			fmt.Fprintf(&sb, "<num>%d.0</num>", g)
		default:
			fmt.Fprintf(&sb, "<num>0%d</num>", g)
		}
	}
	sb.WriteString("</root>")
	doc, err := xmltree.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	st, err := BuildStore(doc, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []struct {
		op  pattern.CmpOp
		rhs string
	}{
		{pattern.CmpEq, "2"},  // merged numeric-group run (3 spellings)
		{pattern.CmpGe, "1"},  // multi-run range
		{pattern.CmpLt, "99"}, // every run
	} {
		all := scanFilterRef(doc, "num", probe.op, probe.rhs)
		if len(all) <= 2*postingsBlockLen {
			t.Fatalf("%v %q: run too short (%d) to cross blocks", probe.op, probe.rhs, len(all))
		}
		// Seek targets: around each block boundary of the reference list,
		// plus the extremes.
		var targets []int
		for b := postingsBlockLen; b < len(all); b += postingsBlockLen {
			targets = append(targets, b-1, b, b+1)
		}
		targets = append(targets, 0, len(all)-1)
		for _, ti := range targets {
			vs, ok := st.ProbeValue("num", probe.op, probe.rhs)
			if !ok {
				t.Fatalf("%v %q: probe declined", probe.op, probe.rhs)
			}
			if _, err := vs.SeekGE(all[ti]); err != nil {
				t.Fatal(err)
			}
			got := drainProbe(t, vs)
			want := all[ti:]
			if len(got) != len(want) {
				t.Fatalf("%v %q seek@%d: %d postings after seek, want %d",
					probe.op, probe.rhs, ti, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v %q seek@%d: posting %d = %d, want %d",
						probe.op, probe.rhs, ti, i, got[i], want[i])
				}
			}
		}
		// Seeking past the last posting exhausts the probe.
		vs, _ := st.ProbeValue("num", probe.op, probe.rhs)
		if _, err := vs.SeekGE(all[len(all)-1] + 1); err != nil {
			t.Fatal(err)
		}
		if got := drainProbe(t, vs); len(got) != 0 {
			t.Fatalf("%v %q: seek past end left %d postings", probe.op, probe.rhs, len(got))
		}
	}
}

// TestValueIndexCompressionAndStats checks the compression accounting: the
// encoded postings must be smaller than the 4-bytes-per-posting baseline,
// and ContentStats must reflect probes and block decodes.
func TestValueIndexCompressionAndStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	doc := valueDoc(t, rng, 6000)
	st, err := BuildStore(doc, 64)
	if err != nil {
		t.Fatal(err)
	}
	cs := st.ContentStats()
	if cs.ValueRuns == 0 || cs.NumericTags == 0 {
		t.Fatalf("ContentStats runs/numeric = %d/%d, want > 0", cs.ValueRuns, cs.NumericTags)
	}
	if cs.PostingsBytes <= 0 || cs.PostingsBytes >= cs.RawPostingsBytes {
		t.Fatalf("postings %d bytes not smaller than raw %d", cs.PostingsBytes, cs.RawPostingsBytes)
	}
	if cs.ValueProbes != 0 {
		t.Fatalf("fresh store reports %d probes", cs.ValueProbes)
	}
	vs, ok := st.ProbeValue("num", pattern.CmpGe, "0")
	if !ok {
		t.Fatal("probe declined")
	}
	drainProbe(t, vs)
	cs = st.ContentStats()
	if cs.ValueProbes != 1 {
		t.Fatalf("ValueProbes = %d after one probe", cs.ValueProbes)
	}
	if cs.BlocksDecoded == 0 {
		t.Fatal("BlocksDecoded = 0 after draining a probe")
	}
}
