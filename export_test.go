package sjos

// Test fixtures of package sjos that the black-box tests of package
// sjos_test share.

// ServingCorpus is servingCorpus: the benchmark's eight documents on four
// shards.
var ServingCorpus = servingCorpus
