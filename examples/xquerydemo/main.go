// XQuery demo: the FLWOR-subset frontend (the §2.1 translation from XQuery
// to tree patterns) against the personnel data set — including the paper's
// running example expressed as the query a user would actually write.
package main

import (
	"context"
	"fmt"
	"log"

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

	// The paper's Example 2.2 as FLWOR: for each manager A, the names of
	// supervised employees and of departments directly run by subordinate
	// managers.
	ctx := context.Background()
	res, err := c.XQueryContext(ctx, `
		for $a in //manager, $d in $a//manager
		where $a//employee/name and $d/department/name
		return $a/name, $d/department/name`,
		sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sjos.MethodDPP}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Example 2.2 (optimize %v, execute %v): %d rows; compiled pattern:\n  %s\n",
		res.OptimizeTime, res.ExecuteTime, len(res.Rows), res.Pattern)
	for i, row := range res.Rows {
		if i == 5 {
			fmt.Println("  ...")
			break
		}
		manager, _ := c.Value(row.DocID, row.Nodes[0])
		dept, _ := c.Value(row.DocID, row.Nodes[1])
		fmt.Printf("  manager %-8q runs department %q (via a subordinate)\n", manager, dept)
	}

	// Value predicates and ordered output.
	res, err = c.XQueryContext(ctx, `
		for $e in //employee
		where $e/salary >= 100000
		order by $e
		return $e/name, $e/salary`,
		sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sjos.MethodFP}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhighly paid employees (document order): %d\n", len(res.Rows))
	for i, row := range res.Rows {
		if i == 5 {
			fmt.Println("  ...")
			break
		}
		name, _ := c.Value(row.DocID, row.Nodes[0])
		salary, _ := c.Value(row.DocID, row.Nodes[1])
		fmt.Printf("  %s earns %s\n", name, salary)
	}

	// Show the plan the optimizer chose for the compiled pattern.
	fmt.Println("\nplan for the last query:")
	fmt.Print(res.PlanText)
}
