//go:build race

package server

// raceEnabled reports whether the race detector is on. Its
// instrumentation allocates, so allocation gates skip under it.
const raceEnabled = true
