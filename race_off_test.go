//go:build !race

package alp

const raceEnabled = false
