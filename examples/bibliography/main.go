// Bibliography: querying the DBLP-like data set — shallow, wide documents
// where parent-child joins dominate — including value predicates and ordered
// output.
package main

import (
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

	// 1. Selective lookup with value predicates.
	res, err := c.Query(`//article[author = "author-7"]/title`, sjos.MethodDPP)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("articles by author-7: %d\n", len(res.Matches))
	for i, m := range res.Matches {
		if i == 3 {
			fmt.Println("  ...")
			break
		}
		v, _ := c.Value(m.DocID, m.Nodes[2])
		fmt.Printf("  %s\n", v)
	}

	// 2. Ordered output: '#' requests the result sorted by that node.
	// FP guarantees a sort-free plan producing exactly this order.
	res, err = c.Query(`//inproceedings#[author]/cite/label`, sjos.MethodFP)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncited inproceedings (ordered by paper): %d matches, plan:\n", len(res.Matches))
	fmt.Println(res.PlanText)

	// 3. Range predicate over numeric text.
	res, err = c.Query(`//article[year >= 2000]/title`, sjos.MethodDPP)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("articles from 2000 on: %d\n", len(res.Matches))
}
