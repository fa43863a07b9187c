//go:build race

package coordinator

// RaceEnabled disables wall-clock timing assertions under the race
// detector, whose instrumentation overhead swamps the paced schedule,
// and schedule-pinned trace digests, whose order the detector's
// randomized scheduler shuffles.
const RaceEnabled = true
