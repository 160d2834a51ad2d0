package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"sjos/internal/datagen"
	"sjos/internal/xmltree"
)

// Everything the server is sent is made here. The documents are a fixed data
// set — datagen.Pers at constant generator seeds — and the run's seed drives
// everything asked of them: which values are probed, the predicate constants,
// the order of every list, and the mutation ledger. The server never sees
// the seed. The documents do not vary with it because their shape sets the
// size of every answer: over ten document seeds the rows of Q.Pers.4.d alone
// range ±10 %, which moves bulk_results' qps by ±5 % and its 90th percentile
// by ±10 % before anything is measured — more than the bounds are meant to
// catch.

const (
	corpusDocs = 8 // pers documents of ≈5k nodes each, ≈40k nodes in all
	corpusSeed = 1 // generator seed of the first document; document i uses corpusSeed+i
)

// The paper's four Table-1 pers queries (internal/experiments spells them
// the same way; the strings are repeated here so the benchmark owns its
// inputs).
const (
	qPers1a = `//manager//employee/name`
	qPers2c = `//manager[department/name]//employee/name`
	qPers3d = `//manager[.//employee/name]//manager/department/name`
	qPers4d = `//manager[.//manager//employee/name]/department/name`
)

// document is one generated pers document: the tree the oracle reads and the
// XML text the server is sent.
type document struct {
	id   string
	tree *xmltree.Document
	xml  string
}

func genDocument(id string, seed int64) (*document, error) {
	tree := datagen.Pers(1, seed)
	xml, err := xmltree.SerializeString(tree)
	if err != nil {
		return nil, fmt.Errorf("serialising %s: %w", id, err)
	}
	return &document{id: id, tree: tree, xml: xml}, nil
}

// genCorpus returns the n documents every workload starts from.
func genCorpus(n int) ([]*document, error) {
	docs := make([]*document, n)
	for i := range docs {
		d, err := genDocument(fmt.Sprintf("doc-%02d", i), corpusSeed+int64(i))
		if err != nil {
			return nil, err
		}
		docs[i] = d
	}
	return docs, nil
}

// request is one GET /query with the answer the oracle expects for it.
type request struct {
	query     string
	limit     int  // first-k: the server stops after this many matches
	countOnly bool // count=1: no matches in the response
	want      expectation
}

// path is the request's URL path and query string.
func (r *request) path() string {
	p := "/query?q=" + url.QueryEscape(r.query)
	if r.limit > 0 {
		p += fmt.Sprintf("&limit=%d", r.limit)
	}
	if r.countOnly {
		p += "&count=1"
	}
	return p
}

// wantCount is the "count" a correct response carries.
func (r *request) wantCount() uint64 {
	if r.limit > 0 && uint64(r.limit) < r.want.total {
		return uint64(r.limit)
	}
	return r.want.total
}

// step is one operation of a workload's cycle: a query or a write. Steps of
// one class do the same work each time the cycle comes round — the same
// string, or for plan_cold a string whose bound has moved by one — so the
// spread of a class's latencies is the machine's doing, not the input's.
type step struct {
	read  *request
	write *mutation
	class int
}

// readSteps makes one step per request, one class per distinct string.
func readSteps(reqs []request) []step {
	classOf := map[string]int{}
	steps := make([]step, len(reqs))
	for i := range reqs {
		p := reqs[i].path()
		if _, seen := classOf[p]; !seen {
			classOf[p] = len(classOf)
		}
		steps[i] = step{read: &reqs[i], class: classOf[p]}
	}
	return steps
}

// resolve fills in the oracle's answers over docs.
func resolve(reqs []request, docs []*document) error {
	for i := range reqs {
		if err := reqs[i].resolve(docs); err != nil {
			return err
		}
	}
	return nil
}

func (r *request) resolve(docs []*document) error {
	e, err := expect(docs, r.query)
	if err != nil {
		return fmt.Errorf("oracle for %q: %w", r.query, err)
	}
	r.want = e
	return nil
}

// pickSpread picks n of the probe values, spread evenly over the values
// ranked by how many rows their probe returns: the seed decides which values,
// but every seed gets the same mix of small and large answers. Without this
// a seed that happens to draw a top-level manager — a thousand rows where the
// typical probe returns ten — shifts qps and the 90th percentile by a fifth.
func pickSpread(rng *rand.Rand, rows map[string]uint64, n int) []string {
	ranked := make([]string, 0, len(rows))
	for v := range rows {
		ranked = append(ranked, v)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if rows[ranked[i]] != rows[ranked[j]] {
			return rows[ranked[i]] < rows[ranked[j]]
		}
		return ranked[i] < ranked[j]
	})
	slot := len(ranked) / n // values per pick; the pick moves freely inside a tenth of it
	out := make([]string, n)
	for k := range out {
		out[k] = ranked[k*slot+slot/2+rng.Intn(slot/10+1)]
	}
	return out
}

// pointRequests is the point_cached list: 32 recurring strings, each cheap
// once its plan is cached. Exact-match probes use values that occur in the
// generated documents, so every one of them returns rows.
func pointRequests(rng *rand.Rand, docs []*document) ([]request, error) {
	var reqs []request
	for _, class := range []struct {
		shape, probe string
		n            int
	}{
		{`//employee[name]`, `//employee[name=%q]`, 9},
		{`//department[name]`, `//department[name=%q]`, 9},
		{`//manager[name]//employee/name`, `//manager[name=%q]//employee/name`, 8},
	} {
		rows, err := rowsByName(docs, class.shape)
		if err != nil {
			return nil, err
		}
		if len(rows) < class.n {
			return nil, fmt.Errorf("only %d values to probe %s with", len(rows), class.shape)
		}
		for _, v := range pickSpread(rng, rows, class.n) {
			reqs = append(reqs, request{query: fmt.Sprintf(class.probe, v)})
		}
	}
	reqs = append(reqs, request{query: `//employee[salary>118000]/name`})
	for _, q := range []string{qPers1a, qPers2c, qPers3d, qPers4d} {
		reqs = append(reqs, request{query: q, limit: 10})
	}
	reqs = append(reqs, request{query: `//manager/name`, countOnly: true})
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, nil
}

// bulkRequests is one bulk_results pass: 20 full-output requests in seeded
// order — 6× Q.Pers.2.c (36 k rows of 5 nodes), 9× Q.Pers.1.a (72 k of 3) and
// 5× Q.Pers.4.d (134 k of 6, 15.7 MB of JSON). With the classes sorted by
// cost those shares (30 %, 45 %, 25 %) put the median well inside the 1.a
// class and the 90th percentile well inside the 4.d class, not on a boundary
// between two, so neither jumps when a few samples move. Q.Pers.3.d (1.04 M
// rows, 121 MB, 3 s, a gigabyte of server memory) is deliberately not here:
// README.md, "What was tried and dropped", has the measurements.
func bulkRequests(rng *rand.Rand) []request {
	var reqs []request
	for _, c := range []struct {
		q string
		n int
	}{{qPers2c, 6}, {qPers1a, 9}, {qPers4d, 5}} {
		for i := 0; i < c.n; i++ {
			reqs = append(reqs, request{query: c.q})
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// planColdTemplates are twigs of 12–13 pattern nodes over the pers vocabulary:
// deep chains, wide fan-out, bushy, and mixed / and // edges. $C is a salary
// bound; predicate constants are part of pattern.Fingerprint, so each distinct
// constant is a plan the cache has never seen.
var planColdTemplates = [...]string{
	`//personnel//manager[department/name]//manager//manager[department/name]/manager[name]/employee[salary>$C]/name`,
	`//manager[name]//manager[department/name][employee/name]//manager[employee[salary>$C]/name]/department/name`,
	`//manager[name][department/name]/manager[name][employee[salary>$C][name]]/manager[name]/employee/name`,
	`//manager[employee/name][department/name][manager/name][manager/employee[salary>$C]/name]/name`,
	`//personnel/manager[name]//manager[name][department]//manager[name][employee[salary>$C]]//employee/name`,
	`//manager[department/name]/manager[department/name]/manager[department/name]/manager[employee[salary>$C]]/name`,
	`//manager[employee[name][salary>$C]][department/name]/manager[employee[name]][department[name]]/manager/name`,
	`//manager[name][employee[name][salary>$C]][department[name]]//manager[name][employee[name]]/department`,
}

// Salaries run from 30000 to 119999; bounds in the top 20000 keep results
// small (tens to a few thousand rows), so planning dominates execution.
const (
	planColdLow    = 100000
	planColdRange  = 20000
	planColdBounds = 2   // bounds per template: 16 classes in all
	planColdJitter = 500 // the seed moves a class's first bound by less than this
)

// planColdList hands out the plan_cold cycle: 16 steps, template t with its
// b-th bound, a class each. What a search costs depends on the bound through
// the selectivity estimate, by a factor of five within one template, so a
// class's bound must hardly move: in pass p class (t, b) asks for
// base[t][b]+p — a string the server has never seen, whose selectivity
// differs from the last pass's by one employee or none. The bases sit in the
// middle of the range's two halves, moved by the seed by up to
// planColdJitter, so every seed asks for different strings and every seed
// gets the same mix of cheap and dear searches. Two bounds and not more,
// because a pass of sixteen searches takes a second and a class's quiet
// latency wants twenty repeats.
type planColdList struct {
	base [len(planColdTemplates)][planColdBounds]int
}

func newPlanColdList(rng *rand.Rand) *planColdList {
	l := &planColdList{}
	slot := planColdRange / planColdBounds
	for t := range l.base {
		for b := range l.base[t] {
			l.base[t][b] = planColdLow + b*slot + slot/2 + rng.Intn(planColdJitter)
		}
	}
	return l
}

// pass returns the requests of one pass, bound by bound and template by
// template within a bound; step j is of class j.
func (l *planColdList) pass(p int) []request {
	reqs := make([]request, 0, len(planColdTemplates)*planColdBounds)
	for b := 0; b < planColdBounds; b++ {
		for t, tmpl := range planColdTemplates {
			c := l.base[t][b] + p
			reqs = append(reqs, request{query: strings.ReplaceAll(tmpl, "$C", fmt.Sprint(c)), countOnly: true})
		}
	}
	return reqs
}

// churnTwig is churn_mixed's one string that is dear to plan: every
// statistics bump (every committed write) forces it to be planned again,
// which costs tens of milliseconds where the point strings cost one.
const churnTwig = `//manager[name][employee[name][salary>110000]][department[name]]//manager[name][employee[name]]/department`

// mutation is one whole-document write.
type mutation struct {
	op  string // insert, replace or delete
	id  string
	doc *document // nil for delete
}

const (
	churnRounds     = 2 // times the four writes come round in one churn_mixed cycle
	churnPointReads = 8 // point strings asked after each write, twice over
)

// churnCycle is churn_mixed's cycle: four whole-document writes that bring
// the corpus back to where it started — insert an extra document, replace
// doc-00 by another body, delete the extra, put doc-00's own body back — and
// after each write the twig and eight of the point strings, twice over. Every
// write bumps the statistics and so empties the plan cache: the first round
// of reads plans all nine again, the second finds them cached. The four
// writes come round twice in one cycle, because the store behind them has a
// period of two rounds — at the seed commit every second round compacts, so
// the last replace takes 13 ms in one round and 28 ms in the next — and a
// write is a class of its own only if it does the same work each time round.
// A read does the same work in both rounds (the documents it sees are the
// same; only the store's dead space differs), so the two rounds' reads share
// their classes and have twice the repeats. The states the reads see are each
// resolved against the oracle. Nothing
// here varies with the seed but the point strings: what is written when
// decides which shard compacts when and how long the log has grown, and
// recovery time with it.
func churnCycle(points []request, docs []*document) ([]step, error) {
	extra, err := genDocument("extra", corpusSeed+int64(corpusDocs))
	if err != nil {
		return nil, err
	}
	other, err := genDocument(docs[0].id, corpusSeed+int64(corpusDocs)+1)
	if err != nil {
		return nil, err
	}
	writes := []mutation{
		{"insert", extra.id, extra},
		{"replace", other.id, other},
		{"delete", extra.id, nil},
		{"replace", docs[0].id, docs[0]},
	}
	if len(points) != len(writes)*churnPointReads {
		return nil, fmt.Errorf("%d point strings, the cycle needs %d", len(points), len(writes)*churnPointReads)
	}
	var steps []step
	state := docs
	perRound := len(writes) * (1 + 2*(1+churnPointReads)) // a write, then nine reads twice
	for round := 0; round < churnRounds; round++ {
		for w := range writes {
			steps = append(steps, step{write: &writes[w], class: len(steps)})
			state = applyMutation(state, &writes[w])
			reads := append([]request{{query: churnTwig}}, points[w*churnPointReads:(w+1)*churnPointReads]...)
			reads = append(reads, reads...)
			if err := resolve(reads, state); err != nil {
				return nil, err
			}
			for i := range reads {
				steps = append(steps, step{read: &reads[i], class: len(steps) % perRound})
			}
		}
	}
	return steps, nil
}

// applyMutation returns docs after m.
func applyMutation(docs []*document, m *mutation) []*document {
	out := make([]*document, 0, len(docs)+1)
	for _, d := range docs {
		switch {
		case d.id != m.id:
			out = append(out, d)
		case m.op == "replace":
			out = append(out, m.doc)
		}
	}
	if m.op == "insert" {
		out = append(out, m.doc)
	}
	return out
}
