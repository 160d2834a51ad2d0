// Streaming: the §3.4 motivation for the FP algorithm, live. Fully
// pipelined plans produce their first results immediately; blocking plans
// must finish sorting whole intermediate results first. This matters for
// online querying — a user watching results appear — which is exactly the
// application the paper recommends FP for.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sjos"
)

func main() {
	// Folded Pers: the full result has ~2M tuples, so "compute
	// everything, then show the first page" hurts.
	// One document: a one-shard corpus, the paper's single database.
	b := sjos.NewCorpusBuilder(nil)
	b.AddDataset("pers", "pers", 1, 20, 0)
	c, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	pat := sjos.MustParsePattern("//manager[.//employee/name]//manager/department/name")
	ctx := context.Background()
	fmt.Printf("Pers ×20 (%d nodes); query: first 10 of many matches\n\n", c.Health()[0].Nodes)

	// The fully-pipelined plan from FP.
	fp, err := c.OptimizeContext(ctx, pat, sjos.MethodFP, 0)
	if err != nil {
		log.Fatal(err)
	}

	// A blocking alternative: the cheapest sort-containing plan from a
	// random sample (stand-in for what a naive evaluator might do).
	var blocking *sjos.Plan
	cost := 0.0
	for seed := int64(0); seed < 60; seed++ {
		r, err := c.BadPlan(pat, 1, seed)
		if err != nil {
			log.Fatal(err)
		}
		if r.Plan.Sorts() > 0 && (blocking == nil || r.Cost < cost) {
			blocking, cost = r.Plan, r.Cost
		}
	}
	if blocking == nil {
		log.Fatal("no blocking plan sampled")
	}

	measure := func(label string, p *sjos.Plan) {
		t0 := time.Now()
		fr, err := c.Run(ctx, pat, p, sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Limit: 10}})
		if err != nil {
			log.Fatal(err)
		}
		firstLatency := time.Since(t0)
		t0 = time.Now()
		tr, err := c.Run(ctx, pat, p, sjos.QueryOptions{CountOnly: true})
		if err != nil {
			log.Fatal(err)
		}
		total := tr.Count
		fullLatency := time.Since(t0)
		fmt.Printf("%-22s first %d results in %-12v full %d results in %v\n",
			label, fr.Count, firstLatency.Round(time.Microsecond), total, fullLatency.Round(time.Millisecond))
	}
	measure("FP (pipelined):", fp.Plan)
	measure("blocking (with sorts):", blocking)

	fmt.Println("\nThe pipelined plan streams; the blocking plan pays its sorts before")
	fmt.Println("emitting anything. That asymmetry is the paper's case for FP in")
	fmt.Println("interactive and online querying.")
}
