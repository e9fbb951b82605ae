//go:build race

package core_test

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
