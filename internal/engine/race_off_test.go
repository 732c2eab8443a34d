//go:build !race

package engine

// raceEnabled reports a build with the race detector.
const raceEnabled = false
