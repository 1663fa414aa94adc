package rqrmi

import "runtime"

// Config controls RQ-RMI training. Zero fields take defaults from
// DefaultConfig.
type Config struct {
	// StageWidths is the number of submodels per stage (Table 4 of the
	// paper). The first width must be 1. Widths are clamped to the number
	// of entries during training.
	StageWidths []int
	// Hidden is the number of hidden neurons per submodel (the paper
	// fixes 8, which affords a vectorizable inference kernel).
	Hidden int
	// TargetError is the desired worst-case search distance (§3.5.6). The
	// fit minimizes every submodel's error whatever the target, so it only
	// seeds the search for the smallest tolerance; a leaf that cannot meet
	// it keeps its measured bound — lookups stay correct, only the
	// secondary search gets longer.
	TargetError int
	// Seed is accepted for compatibility and ignored: the fit is
	// deterministic and draws no random numbers.
	Seed int64
	// Workers is the number of goroutines fitting submodels of one stage
	// concurrently. 0 means GOMAXPROCS.
	Workers int
	// SafetySlack widens every stored leaf error bound; the default of 1
	// costs one extra binary-search step and absorbs the error-bound
	// boundary case where the predicted index sits exactly on the window
	// edge. Set to a negative value to store exactly the measured bound.
	SafetySlack int
}

// StageWidthsForSize returns the stage configuration of Table 4 for a given
// number of indexed ranges.
func StageWidthsForSize(n int) []int {
	switch {
	case n < 1_000:
		return []int{1, 4}
	case n < 10_000:
		return []int{1, 4, 16}
	case n < 100_000:
		return []int{1, 4, 128}
	case n <= 250_000:
		return []int{1, 8, 256}
	default:
		return []int{1, 8, 512}
	}
}

// DefaultConfig returns the training configuration used throughout the
// paper's evaluation for a model over n ranges: Table 4 stage widths, 8
// hidden neurons, and a maximum error threshold of 64 (§5.1). A leaf whose
// best fit stays above the threshold keeps its measured bound, as §3.5.6
// prescribes (the operator's "increase the target" escape hatch), which
// lengthens that leaf's secondary search by a few binary steps but never
// compromises correctness.
func DefaultConfig(n int) Config {
	return Config{
		StageWidths: StageWidthsForSize(n),
		Hidden:      8,
		TargetError: 64,
		Workers:     runtime.GOMAXPROCS(0),
		SafetySlack: 1,
	}
}

func (c Config) withDefaults(n int) Config {
	d := DefaultConfig(n)
	if len(c.StageWidths) == 0 {
		c.StageWidths = d.StageWidths
	}
	if c.Hidden <= 0 {
		c.Hidden = d.Hidden
	}
	if c.TargetError <= 0 {
		c.TargetError = d.TargetError
	}
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.SafetySlack == 0 {
		c.SafetySlack = d.SafetySlack
	} else if c.SafetySlack < 0 {
		c.SafetySlack = 0 // negative requests exactly the measured bound
	}
	return c
}
