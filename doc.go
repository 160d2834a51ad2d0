// Package sjos is a cost-based structural join order optimizer for XML
// tree-pattern queries — a from-scratch Go reproduction of Wu, Patel and
// Jagadish, "Structural Join Order Selection for XML Query Optimization"
// (ICDE 2003), together with every substrate the paper's system (the Timber
// native XML database) provides underneath it: a region-encoded XML store
// with a paged buffer pool and element-tag indexes, the Stack-Tree
// structural join operators, positional-histogram cardinality estimation,
// and a pipelined executor.
//
// # Quick start
//
// The library has one facade, the Corpus. The paper's single document is a
// one-document corpus — one shard, read-only — reporting rows in the
// document's own node numbering:
//
//	b := sjos.NewCorpusBuilder(nil)
//	b.AddXMLString("doc", `<db><a><b/></a></db>`)
//	c, err := b.Build()
//	if err != nil { ... }
//	ctx := context.Background()
//	opts := sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sjos.MethodDPP}}
//	res, err := c.QueryContext(ctx, "//a//b", opts)
//	if err != nil { ... }
//	fmt.Println(res.Count, "matches via plan:\n", res.PlanText)
//
// AddXML, AddImage (a binary image from xqgen -format image) and AddDataset
// (a synthetic benchmark data set) add documents the other ways.
//
// Four calls ask a corpus a question. QueryContext plans a pattern through
// the plan cache and runs it; XQueryContext does the same for a FLWOR-subset
// query. OptimizeContext and Run are the paper's two phases apart: choose a
// plan with a given method (no cache), then execute it. All four observe ctx,
// and QueryOptions tunes the three that execute.
//
// # Corpora
//
// Many documents go behind the same surface: documents are distributed over
// shards by consistent hashing of their IDs, each shard stores its members
// as one forest over the same paged store, and queries are planned once
// against corpus-wide merged statistics, executed on every shard, and
// gathered in document order with document-local node IDs:
//
//	b := sjos.NewCorpusBuilder(&sjos.CorpusOptions{Shards: 4})
//	b.AddXMLString("inventory", `<db><a><b/></a></db>`)
//	b.AddXMLString("archive", `<db><a><b/><b/></a></db>`)
//	c, err := b.Build()
//	if err != nil { ... }
//	res, err := c.QueryContext(ctx, "//a//b", opts)
//	for _, seg := range res.Segments {
//		for r := 0; r < seg.Len(); r++ { fmt.Println(seg.DocID, seg.Row(r)) }
//	}
//
// The rows live in res.Segments — one DocSegment per document, re-slicing
// the shards' match sets and pinned to the document version the query
// ran on (seg.TagName, seg.Value).
//
// A corpus answers exactly as the concatenation of one-document corpora over
// its members, each in its own document's numbering.
//
// # Writes
//
// A corpus built without CorpusOptions.ShardWALFile is read-only. With it,
// Insert, Replace and Delete commit whole documents through each shard's
// write-ahead log, and building the corpus again over the same logs
// recovers the committed state. A one-shard corpus is the single writable
// store:
//
//	wal := sjos.NewMemPageFile() // or sjos.CreatePageFile / OpenPageFile
//	c, err := sjos.NewCorpusBuilder(&sjos.CorpusOptions{
//		Shards: 1, ShardWALFile: func(int) sjos.PageFile { return wal },
//	}).Build()
//	err = c.InsertString("o1", `<order><item/></order>`)
//
// # The six optimizers
//
// The paper's algorithms — plus a statistics-free extension — are selected
// with a Method:
//
//	MethodDP      exhaustive dynamic programming — optimal, slowest
//	MethodDPP     DP with pruning — optimal, the recommended default
//	MethodDPAPEB  aggressive pruning, per-level expansion bound Te
//	MethodDPAPLD  aggressive pruning, left-deep plans only
//	MethodFP      fully-pipelined (sort-free) plans only — fastest to
//	              optimize, near-optimal plans, first results stream
//	              immediately
//	MethodGreedy  statistics-free greedy construction — no search at
//	              all (~100× cheaper planning than DP), plans within
//	              15% of optimal on the paper's workloads
//
// Per the paper's conclusions: use DPP when query execution time dominates,
// FP when optimization time matters or results should stream; Greedy when
// planning cost itself must be negligible.
//
// # Pattern syntax
//
// Patterns use a compact XPath-like twig syntax ("//" = ancestor-descendant,
// "/" = parent-child, "[...]" = branch or predicate, "#" marks the node the
// output must be ordered by; in a quoted literal \" is a quote and \\ a
// backslash, and every other byte stands for itself):
//
//	//manager[.//employee/name]//department/name
//	/dblp/article[author = "author-7"][year >= 1990]/title
//
// See the examples directory for complete programs, DESIGN.md for the
// architecture, and EXPERIMENTS.md for the reproduction of the paper's
// evaluation.
package sjos
