package cutsplit

import (
	"math/rand"
	"testing"

	"nuevomatch/internal/classifiers/conformance"
	"nuevomatch/internal/rules"
)

func TestConformance(t *testing.T) {
	conformance.Check(t, Build, 4, []int{1, 10, 100, 500}, 200)
}

func TestDegenerate(t *testing.T) {
	conformance.CheckDegenerate(t, Build)
}

func TestFrozenSkipMatchesReference(t *testing.T) {
	conformance.CheckFrozenSkip(t, Build, 41, 600, 800)
}

func TestPartitionBySmallFields(t *testing.T) {
	rs := rules.NewRuleSet(2)
	rs.AddAuto(rules.PrefixRange(0x0a000000, 24), rules.PrefixRange(0x0b000000, 24)) // small/small
	rs.AddAuto(rules.PrefixRange(0x0a000000, 24), rules.PrefixRange(0, 0))           // small/big
	rs.AddAuto(rules.PrefixRange(0, 0), rules.PrefixRange(0x0b000000, 24))           // big/small
	rs.AddAuto(rules.PrefixRange(0, 0), rules.PrefixRange(0, 0))                     // big/big
	groups := partitionBySmallFields(rs, 16)
	if len(groups) != 4 {
		t.Fatalf("got %d groups, want 4", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += g.set.Len()
	}
	if total != rs.Len() {
		t.Errorf("groups hold %d rules, want %d", total, rs.Len())
	}
}

func TestLeafBoundHonored(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rs := conformance.RandomRuleSet(rng, 400, 5)
	c := New(rs, Config{Binth: 4, SmallPrefix: 16, MaxCuts: 16})
	for _, st := range c.Stats() {
		if st.Leaves == 0 {
			t.Error("tree without leaves")
		}
		if st.MaxDepth > 48 {
			t.Errorf("depth %d exceeds the safety cap", st.MaxDepth)
		}
	}
}

func TestReplicationStaysBounded(t *testing.T) {
	// Structured 5-tuple rules: replication (leaf entries / rules) should
	// stay modest; runaway replication indicates broken cutting.
	rng := rand.New(rand.NewSource(6))
	rs := rules.NewRuleSet(5)
	for i := 0; i < 1000; i++ {
		rs.AddAuto(
			rules.PrefixRange(rng.Uint32(), 16+rng.Intn(17)),
			rules.PrefixRange(rng.Uint32(), 8+rng.Intn(25)),
			rules.FullRange(),
			rules.ExactRange(uint32(rng.Intn(2000))),
			rules.ExactRange(uint32(6)),
		)
	}
	c := New(rs, DefaultConfig())
	entries := 0
	for _, st := range c.Stats() {
		entries += st.LeafEntries
	}
	if f := float64(entries) / float64(rs.Len()); f > 4 {
		t.Errorf("replication factor %.2f > 4", f)
	}
	for i := 0; i < 500; i++ {
		p := conformance.RandomPacket(rng, rs)
		if got, want := c.Lookup(p), rs.MatchID(p); got != want {
			t.Fatalf("Lookup(%v) = %d, want %d", p, got, want)
		}
	}
}
