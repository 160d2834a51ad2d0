package main

import (
	"math/rand"
	"strings"
	"testing"
)

// inputsOf renders everything a seed generates — the first two passes of
// every workload's cycle, write bodies included — as one string.
func inputsOf(t *testing.T, seed int64) string {
	t.Helper()
	var sb strings.Builder
	for _, w := range workloads {
		in, err := newInputs(w.name, sizing{docs: 2}, seed)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for _, st := range in.cycle(pass) {
				if st.read != nil {
					sb.WriteString(st.read.path() + "\n")
					continue
				}
				sb.WriteString(st.write.op + " " + st.write.id + "\n")
				if st.write.doc != nil {
					sb.WriteString(st.write.doc.xml + "\n")
				}
			}
		}
	}
	return sb.String()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := inputsOf(t, 5), inputsOf(t, 5), inputsOf(t, 6)
	if a != b {
		t.Error("the same seed generated different inputs")
	}
	if a == c {
		t.Error("different seeds generated the same inputs")
	}
}

func TestPointListShape(t *testing.T) {
	docs, err := genCorpus(2)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := pointRequests(rand.New(rand.NewSource(3)), docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 32 || len(distinct(reqs)) != 32 {
		t.Fatalf("%d requests, %d distinct; want 32 distinct", len(reqs), len(distinct(reqs)))
	}
	if err := resolve(reqs, docs); err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if r.want.total == 0 {
			t.Errorf("%s returns nothing: probes must use values that occur", r.query)
		}
	}
}

func TestPlanColdStringsAreDistinct(t *testing.T) {
	list := newPlanColdList(rand.New(rand.NewSource(1)))
	seen := map[string]bool{}
	for pass := 0; pass < 200; pass++ {
		reqs := list.pass(pass)
		if len(reqs) != len(planColdTemplates)*planColdBounds {
			t.Fatalf("pass %d has %d strings", pass, len(reqs))
		}
		for j, r := range reqs {
			if seen[r.query] {
				t.Fatalf("pass %d string %d repeats: %s", pass, j, r.query)
			}
			seen[r.query] = true
		}
	}
	for i, r := range list.pass(planColdVerifyPass)[:planColdVerified] {
		if seen[r.query] {
			t.Fatalf("verified string %d is also one of the first 200 passes' timed ones", i)
		}
	}
}

// Whole cycles of churn_mixed leave the corpus as they found it, every write
// is a class of its own, a read shares its class with the same read of the
// other round and with nothing else, and every read is resolved against the
// state it will see.
func TestChurnCycleReturnsToStart(t *testing.T) {
	docs, err := genCorpus(2)
	if err != nil {
		t.Fatal(err)
	}
	points, err := pointRequests(rand.New(rand.NewSource(3)), docs)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := churnCycle(points, docs)
	if err != nil {
		t.Fatal(err)
	}
	state, ops, sizes := docs, map[string]int{}, map[int]bool{}
	perRound, classPath := len(steps)/churnRounds, map[int]string{}
	for j, st := range steps {
		if st.write != nil {
			if st.class != j {
				t.Fatalf("write step %d is of class %d", j, st.class)
			}
			ops[st.write.op]++
			state = applyMutation(state, st.write)
			sizes[len(state)] = true
			continue
		}
		if st.class != j%perRound {
			t.Fatalf("read step %d is of class %d", j, st.class)
		}
		if p, seen := classPath[st.class]; seen && p != st.read.path() {
			t.Fatalf("class %d holds %s and %s", st.class, p, st.read.path())
		}
		classPath[st.class] = st.read.path()
		want, err := expect(state, st.read.query)
		if err != nil {
			t.Fatal(err)
		}
		if want.total != st.read.want.total {
			t.Fatalf("step %d expects %d rows, the state it sees holds %d", j, st.read.want.total, want.total)
		}
	}
	if len(state) != len(docs) {
		t.Fatalf("a cycle leaves %d documents, it started with %d", len(state), len(docs))
	}
	for i := range docs {
		if state[i].id != docs[i].id || state[i].xml != docs[i].xml {
			t.Errorf("document %d differs after a cycle", i)
		}
	}
	if ops["insert"] != churnRounds || ops["delete"] != churnRounds || ops["replace"] != 2*churnRounds {
		t.Errorf("writes in a cycle: %v", ops)
	}
	if len(sizes) != 2 {
		t.Errorf("corpus sizes seen in a cycle: %v", sizes)
	}
}
