package sjos

// Test fixtures of package sjos that the black-box tests of package
// sjos_test share.

// ServingCorpus is servingCorpus: the benchmark's eight documents on four
// shards.
var ServingCorpus = servingCorpus

// ServingCorpusOn is servingCorpusOn: the same eight documents under other
// names, shard and replica counts.
var ServingCorpusOn = servingCorpusOn

// PrunedShards is how many of the corpus's populated shards the scatter
// skips for pat: the scatter's own check, run over every populated shard.
func PrunedShards(c *Corpus, pat *Pattern) int {
	order := c.view().byFirstDoc
	return len(order) - len(c.prune(order, pat, make([]bool, len(c.shards))))
}

// TallyValues and ValueOnShards are tallyValues and valueOnShards: how each
// value of a path spreads over the corpus, and a value held on n shards.
type ValueTally = valueTally

var (
	TallyValues   = tallyValues
	ValueOnShards = valueOnShards
)
