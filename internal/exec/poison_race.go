//go:build race

package exec

// poisonScratch makes a released scratch unreadable (see scratch.release):
// on in race builds, where the differential and chaos suites run.
const poisonScratch = true
