// Tuning: a walk-through of the DPAP-EB expansion bound Te (§3.3.1 / §4.4
// of the paper). Small Te optimizes fast but risks a worse plan; large Te
// converges to DPP. The paper's Figures 7 and 8 show the resulting "U"
// shape of total time — this example reproduces that trade-off and prints
// the sweep, then shows the paper's recommendation in action.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sjos"
)

func main() {
	// Folding the data set ×20 makes execution time matter relative to
	// optimization time (§4.3: bigger data justifies costlier optimizers).
	// One document: a one-shard corpus, the paper's single database.
	b := sjos.NewCorpusBuilder(nil)
	b.AddDataset("pers", "pers", 1, 20, 0)
	c, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	pat := sjos.MustParsePattern("//manager[.//employee/name]//manager/department/name")
	ctx := context.Background()
	fmt.Printf("Pers ×20: %d element nodes\n\n", c.Health()[0].Nodes)

	fmt.Println("DPAP-EB sweep over the expansion bound Te:")
	fmt.Printf("%-6s %-12s %-12s %-12s %s\n", "Te", "optimize", "execute", "total", "est. cost")
	for te := 1; te <= pat.N(); te++ {
		t0 := time.Now()
		res, err := c.OptimizeContext(ctx, pat, sjos.MethodDPAPEB, te)
		if err != nil {
			log.Fatal(err)
		}
		opt := time.Since(t0)
		t1 := time.Now()
		if _, err := c.Run(ctx, pat, res.Plan, sjos.QueryOptions{CountOnly: true}); err != nil {
			log.Fatal(err)
		}
		eval := time.Since(t1)
		fmt.Printf("%-6d %-12v %-12v %-12v %.0f\n",
			te, opt.Round(time.Microsecond), eval.Round(time.Microsecond),
			(opt + eval).Round(time.Microsecond), res.Cost)
	}

	fmt.Println("\nReference points:")
	for _, m := range []sjos.Method{sjos.MethodDPP, sjos.MethodFP} {
		t0 := time.Now()
		res, err := c.OptimizeContext(ctx, pat, m, 0)
		if err != nil {
			log.Fatal(err)
		}
		opt := time.Since(t0)
		t1 := time.Now()
		if _, err := c.Run(ctx, pat, res.Plan, sjos.QueryOptions{CountOnly: true}); err != nil {
			log.Fatal(err)
		}
		eval := time.Since(t1)
		fmt.Printf("%-6s %-12v %-12v %-12v %.0f\n",
			m, opt.Round(time.Microsecond), eval.Round(time.Microsecond),
			(opt + eval).Round(time.Microsecond), res.Cost)
	}

	fmt.Println("\nPaper's guidance: when execution dominates, skip tuning Te and use DPP;")
	fmt.Println("when optimization time matters (small data, interactive use), use FP.")
}
