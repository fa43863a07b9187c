//go:build race

package store

// raceEnabled skips the allocation-budget test under the race detector,
// whose shadow memory is counted with what the code under test
// allocates.
const raceEnabled = true
