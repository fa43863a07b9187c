//go:build race

package core_test

// raceEnabled selects the allocation budget: the race detector's own
// allocations are in testing.AllocsPerRun's count.
const raceEnabled = true
