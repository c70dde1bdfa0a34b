//go:build race

package stats

// raceEnabled reports whether the race detector is compiled in; it makes
// sync.Pool drop items at random, so allocation gates skip under it.
const raceEnabled = true
