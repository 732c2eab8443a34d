//go:build race

package engine

// raceEnabled reports a build with the race detector. Its runtime drops
// a share of sync.Pool puts, so allocation counts move with load.
const raceEnabled = true
