package sjos

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestGrandConsistency is the repository's widest property test: on random
// documents and random patterns, the plan every optimizer method picks
// (cost-based, greedy and the DPP′ ablation) must return, through the public
// facade, exactly the multiset of matches the brute-force reference matcher
// finds — an oracle that shares no code with the planner or the executor.
func TestGrandConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(987))
	tags := []string{"a", "b", "c", "d"}
	methods := []Method{MethodDP, MethodDPP, MethodDPPNoLookahead, MethodDPAPEB, MethodDPAPLD, MethodFP, MethodGreedy}
	for trial := 0; trial < 12; trial++ {
		doc := randomXML(rng, 30+rng.Intn(250), tags)
		db := xmlCorpus(t, doc, nil)
		for q := 0; q < 6; q++ {
			pat := randomTwig(rng, tags, 2+rng.Intn(4))
			want := canonicalize(referenceMatches(db, pat))
			for _, m := range methods {
				res, err := db.queryPattern(context.Background(), pat, methodOpts(m))
				if err != nil {
					t.Fatalf("trial %d %v on %s: %v", trial, m, pat, err)
				}
				if got := canonicalize(rowsOf(res.Segments)); !equalStrings(got, want) {
					t.Fatalf("trial %d: %v disagrees with the reference on %s: %d vs %d matches",
						trial, m, pat, len(got), len(want))
				}
			}
		}
	}
}

// randomXML builds a random document as XML text, exercising the parse path
// too.
func randomXML(rng *rand.Rand, n int, tags []string) string {
	var sb strings.Builder
	var gen func(budget int) int
	gen = func(budget int) int {
		used := 0
		for used < budget {
			take := 1
			if budget-used > 1 {
				take = 1 + rng.Intn(budget-used)
			}
			tag := tags[rng.Intn(len(tags))]
			sb.WriteString("<" + tag + ">")
			if rng.Intn(3) == 0 {
				fmt.Fprintf(&sb, "%d", rng.Intn(50))
			}
			gen(take - 1)
			sb.WriteString("</" + tag + ">")
			used += take
		}
		return used
	}
	sb.WriteString("<root>")
	gen(n)
	sb.WriteString("</root>")
	return sb.String()
}

// randomTwig builds a random pattern over the tag alphabet: a chain with
// occasional predicate branches; about half get an OrderBy node.
func randomTwig(rng *rand.Rand, tags []string, n int) *Pattern {
	var sb strings.Builder
	sb.WriteString("//" + tags[rng.Intn(len(tags))])
	for i := 1; i < n; i++ {
		tag := tags[rng.Intn(len(tags))]
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&sb, "[%s]", tag) // child-axis branch
		case 1:
			fmt.Fprintf(&sb, "[.//%s]", tag) // descendant-axis branch
		case 2:
			fmt.Fprintf(&sb, "/%s", tag) // extend chain, child
		default:
			fmt.Fprintf(&sb, "//%s", tag) // extend chain, descendant
		}
	}
	p := MustParsePattern(sb.String())
	if rng.Intn(2) == 0 {
		p.OrderBy = rng.Intn(p.N())
	}
	return p
}

func canonicalize(ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		parts := make([]string, len(m))
		for j, id := range m {
			parts[j] = fmt.Sprint(id)
		}
		out[i] = strings.Join(parts, ",")
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
