// Package core implements the paper's contribution: cost-based structural
// join order selection for XML tree-pattern queries (§3).
//
// The search space is the status graph of §3.1.1. A status captures an
// intermediate stage of evaluation: the pattern nodes are partitioned into
// clusters (connected sub-patterns already joined), and each cluster's
// intermediate result is ordered by the document position of exactly one of
// its nodes (a consequence of using Stack-Tree joins, whose outputs are
// ordered by one of the join nodes). A move evaluates one remaining pattern
// edge with a Stack-Tree join, optionally followed by a sort of the move's
// output; it requires both input clusters to be ordered by the edge's
// endpoints.
//
// Five optimization algorithms search this space:
//
//	DP      — exhaustive level-synchronous dynamic programming (§3.1)
//	DPP     — dynamic programming with pruning: best-first expansion on
//	          Cost+ubCost, dead-status pruning against the best full plan,
//	          and the Lookahead Rule that refuses to generate deadend
//	          statuses (§3.2); DPP′ disables the lookahead
//	DPAP-EB — DPP plus a per-level expansion bound Te (§3.3.1)
//	DPAP-LD — DPP restricted to left-deep statuses: a single growing
//	          cluster (§3.3.2)
//	FP      — fully-pipelined plans only: no sorts anywhere, found by
//	          re-rooting the pattern and enumerating child join orders
//	          (§3.4); guaranteed to return the cheapest non-blocking plan
//
// Optimize runs any of them, or the statistics-free Greedy orderer, named by
// a Method. All of them build their leaves and price their joins through one
// space: the statuses' moves for the DP family, rooted subtrees for FP and
// Greedy. All of them produce a plan.Node tree executable by
// internal/exec, plus search statistics (number of alternative plans
// considered, statuses generated/expanded) matching the measurements
// reported in the paper's Table 2.
package core
