//go:build race

package rqrmi

// raceEnabled reports whether the race detector instruments this build; the
// exhaustive oracle runs fewer seeds under its slowdown.
const raceEnabled = true
