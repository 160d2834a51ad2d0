// Bibliography: querying the DBLP-like data set — shallow, wide documents
// where parent-child joins dominate — including value predicates and ordered
// output.
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
	b.AddDataset("dblp", "dblp", 1, 1, 0)
	c, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DBLP-like data set: %d element nodes\n\n", c.Health()[0].Nodes)

	ctx := context.Background()
	dpp := sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sjos.MethodDPP}}

	// 1. Selective lookup with value predicates.
	res, err := c.QueryContext(ctx, `//article[author = "author-7"]/title`, dpp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("articles by author-7: %d\n", res.Count)
	// One document, so at most one segment; slot 2 is the title.
	for _, seg := range res.Segments {
		for r := 0; r < min(seg.Len(), 3); r++ {
			fmt.Printf("  %s\n", seg.Value(seg.Row(r)[2]))
		}
	}
	if res.Count > 3 {
		fmt.Println("  ...")
	}

	// 2. Ordered output: '#' requests the result sorted by that node.
	// FP guarantees a sort-free plan producing exactly this order.
	fp := sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sjos.MethodFP}}
	res, err = c.QueryContext(ctx, `//inproceedings#[author]/cite/label`, fp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncited inproceedings (ordered by paper): %d matches, plan:\n", res.Count)
	fmt.Println(res.PlanText)

	// 3. Range predicate over numeric text.
	res, err = c.QueryContext(ctx, `//article[year >= 2000]/title`, dpp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("articles from 2000 on: %d\n", res.Count)
}
