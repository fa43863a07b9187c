//go:build !race

package coordinator

const RaceEnabled = false
