package neurocuts

import (
	"math/rand"
	"testing"

	"nuevomatch/internal/classifiers/conformance"
)

func TestConformance(t *testing.T) {
	conformance.Check(t, Build, 5, []int{1, 10, 100, 400}, 150)
}

func TestDegenerate(t *testing.T) {
	conformance.CheckDegenerate(t, Build)
}

func TestFrozenSkipMatchesReference(t *testing.T) {
	conformance.CheckFrozenSkip(t, Build, 42, 600, 800)
}

func TestSearchIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rs := conformance.RandomRuleSet(rng, 300, 5)
	cfg := DefaultConfig()
	cfg.Iterations = 6
	a := New(rs, cfg)
	b := New(rs, cfg)
	if a.MemoryFootprint() != b.MemoryFootprint() || a.Stats() != b.Stats() {
		t.Error("search must be deterministic for a fixed seed")
	}
}

func TestMoreIterationsNeverWorseObjective(t *testing.T) {
	// The search keeps the best policy, so the blended objective with 12
	// iterations must be no worse than with 1 (same seed, same candidate
	// stream prefix).
	rng := rand.New(rand.NewSource(9))
	rs := conformance.RandomRuleSet(rng, 500, 5)
	cost := func(iters int) float64 {
		cfg := DefaultConfig()
		cfg.Iterations = iters
		cfg.SampleSize = 0
		c := New(rs, cfg)
		st := c.Stats()
		return float64(c.MemoryFootprint())/float64(rs.Len()) + float64(st.SumLeafDepth)/float64(st.Leaves)
	}
	if c12, c1 := cost(12), cost(1); c12 > c1*1.001 {
		t.Errorf("12-iteration cost %.3f worse than 1-iteration cost %.3f", c12, c1)
	}
}
