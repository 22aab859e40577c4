//go:build race

package sim_test

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// random quarter of its Puts, so storage-recycling alloc guards cannot
// hold.
const raceEnabled = true
