//go:build !race

package game_test

// raceEnabled reports whether the race detector is on. Its
// instrumentation allocates, so allocation gates skip under it.
const raceEnabled = false
