//go:build race

package alp

// raceEnabled reports whether the race detector is compiled in; the
// allocation tests skip under it, since it changes what allocates.
const raceEnabled = true
