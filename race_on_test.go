//go:build race

package sjos_test

// raceBuild reports a race-detector build, where sync.Pool drops a quarter
// of what it is given and allocation budgets over pooled memory do not hold.
const raceBuild = true
