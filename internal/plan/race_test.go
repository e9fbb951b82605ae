//go:build race

package plan_test

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
