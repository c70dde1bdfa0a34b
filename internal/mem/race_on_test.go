//go:build race

package mem

// raceEnabled reports whether the race detector is compiled in; it
// instruments allocations, so byte-counting gates skip under it.
const raceEnabled = true
