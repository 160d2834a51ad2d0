// Quickstart: load an XML document, run a tree-pattern query with the
// recommended DPP optimizer, and inspect the chosen plan.
package main

import (
	"context"
	"fmt"
	"log"

	"sjos"
)

const doc = `
<library>
  <shelf floor="1">
    <book><title>The Art of Indexing</title><author>Ada</author><year>1999</year></book>
    <book><title>Streams and Stacks</title><author>Brook</author><year>2002</year></book>
  </shelf>
  <shelf floor="2">
    <book><title>Join Orders Considered</title><author>Ada</author><year>2003</year></book>
    <box><book><title>Misplaced Volume</title><author>Cleo</author><year>2001</year></book></box>
  </shelf>
</library>`

func main() {
	// One document is a one-document corpus: one shard, read-only.
	b := sjos.NewCorpusBuilder(nil)
	b.AddXMLString("library", doc)
	c, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d element nodes\n\n", c.Health()[0].Nodes)

	// "//" is ancestor-descendant, "/" parent-child, "[...]" a branch.
	// The Misplaced Volume in the box matches too: shelf//book is an
	// ancestor-descendant edge.
	res, err := c.QueryContext(context.Background(), `//shelf[@floor = "2"]//book[author = "Ada"]/title`,
		sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sjos.MethodDPP}})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("chosen plan (DPP — optimal):")
	fmt.Println(res.PlanText)
	fmt.Printf("%d match(es) in %v (optimization took %v):\n",
		res.Count, res.ExecuteTime, res.OptimizeTime)
	// A segment holds one document's rows and labels their nodes.
	for _, seg := range res.Segments {
		for r := 0; r < seg.Len(); r++ {
			// Slots follow pattern-node order: shelf, @floor, book, author, title.
			m := seg.Row(r)
			fmt.Printf("  title %q (author %q)\n", seg.Value(m[4]), seg.Value(m[3]))
		}
	}
}
