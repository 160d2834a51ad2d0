// Personnel: the paper's running example (Example 2.2 / Figure 1) on the
// Pers data set — "for each manager A, list the names of the employees
// supervised by A, and the name of any department directly supervised by
// another manager who is a subordinate of A" — comparing what each
// optimization algorithm picks for it.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sjos"
)

func main() {
	// One document: a one-shard corpus, the paper's single database.
	b := sjos.NewCorpusBuilder(nil)
	b.AddDataset("pers", "pers", 1, 1, 0)
	c, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Pers data set: %d element nodes\n\n", c.Health()[0].Nodes)

	// The Figure 1 pattern: A=manager, B=employee, C=name, D=manager,
	// E=department, F=name; A-B and A-D are "//" edges, the rest "/".
	pat := sjos.MustParsePattern("//manager[.//employee/name]//manager/department/name")
	ctx := context.Background()

	fmt.Println("How each algorithm evaluates the Figure 1 pattern:")
	fmt.Println()
	for _, m := range []sjos.Method{
		sjos.MethodDP, sjos.MethodDPP, sjos.MethodDPAPEB, sjos.MethodDPAPLD, sjos.MethodFP,
	} {
		t0 := time.Now()
		res, err := c.OptimizeContext(ctx, pat, m, 0)
		if err != nil {
			log.Fatal(err)
		}
		opt := time.Since(t0)
		t1 := time.Now()
		rr, err := c.Run(ctx, pat, res.Plan, sjos.QueryOptions{CountOnly: true})
		if err != nil {
			log.Fatal(err)
		}
		n := rr.Count
		eval := time.Since(t1)
		shape := "bushy"
		if res.Plan.LeftDeep() {
			shape = "left-deep"
		}
		pipe := "has blocking sorts"
		if res.Plan.FullyPipelined() {
			pipe = "fully pipelined"
		}
		fmt.Printf("%-8s  opt %-10v eval %-10v %6d matches  cost≈%-9.0f %s, %s\n",
			m, opt.Round(time.Microsecond), eval.Round(time.Microsecond), n, res.Cost, shape, pipe)
	}

	// And the cautionary tale: a randomly chosen bad plan.
	bad, err := c.BadPlan(pat, 40, 1)
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	if _, err := c.Run(ctx, pat, bad.Plan, sjos.QueryOptions{CountOnly: true}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s  opt %-10s eval %-10v %s cost≈%.0f\n",
		"bad", "-", time.Since(t0).Round(time.Microsecond), "                      ", bad.Cost)

	fmt.Println("\nThe DPP plan in full:")
	res, err := c.OptimizeContext(ctx, pat, sjos.MethodDPP, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Plan.Format(pat))
}
