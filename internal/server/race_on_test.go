//go:build race

package server

// raceEnabled reports whether the race detector is compiled in; the
// allocation budget is skipped under it, since it changes what
// allocates.
const raceEnabled = true
