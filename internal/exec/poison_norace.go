//go:build !race

package exec

// poisonScratch makes a released scratch unreadable (see scratch.release):
// off outside race builds, where the overwrite would cost more than the pool
// saves.
const poisonScratch = false
