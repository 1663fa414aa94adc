//go:build race

package serve

// raceEnabled reports whether the race detector instruments this build; the
// zero-allocation guarantee is asserted only without it.
const raceEnabled = true
