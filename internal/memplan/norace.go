//go:build !race

package memplan

// RaceEnabled reports a -race build (see race.go).
const RaceEnabled = false
