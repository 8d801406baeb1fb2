//go:build race

package memplan

// RaceEnabled reports a -race build. There sync.Pool drops a random
// quarter of what it is given, so an allocation count on a path that
// recycles through sync.Pools measures the detector, not the code.
const RaceEnabled = true
