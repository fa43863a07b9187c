//go:build race

package tensor

// raceEnabled skips the timing-ratio test under the race detector,
// which instruments every load of a byte loop but not the assembly
// under copy and bytes.Equal.
const raceEnabled = true
