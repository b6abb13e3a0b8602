//go:build !race

package routing

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so TestAllocsPerTable skips under -race.
const raceEnabled = false
