package core

import (
	"math/rand"
	"strings"
	"testing"

	"nuevomatch/internal/classifiers/conformance"
	"nuevomatch/internal/classifiers/cutsplit"
	"nuevomatch/internal/classifiers/linear"
	"nuevomatch/internal/rules"
)

// fastOpts is the engine's default partition: up to 4 iSets of at least 5 %
// coverage each.
func fastOpts() Options {
	return Options{
		MaxISets:    4,
		MinCoverage: 0.05,
	}
}

// structuredRuleSet has enough field diversity for good iSet coverage.
func structuredRuleSet(rng *rand.Rand, n int) *rules.RuleSet {
	rs := rules.NewRuleSet(5)
	for i := 0; i < n; i++ {
		rs.AddAuto(
			rules.PrefixRange(rng.Uint32(), 16+rng.Intn(17)),
			rules.PrefixRange(rng.Uint32(), 8+rng.Intn(25)),
			rules.Range{Lo: 0, Hi: 65535},
			rules.ExactRange(uint32(rng.Intn(60000))),
			rules.ExactRange(uint32([]int{6, 17}[rng.Intn(2)])),
		)
	}
	return rs
}

func TestBuildAndLookupAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rs := structuredRuleSet(rng, 600)
	e, err := Build(rs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if e.NumISets() == 0 {
		t.Fatal("expected at least one iSet on a high-diversity rule-set")
	}
	st := e.Stats()
	if st.Coverage < 0.5 {
		t.Errorf("coverage = %.2f, want >= 0.5 on structured rules", st.Coverage)
	}
	for i := 0; i < 3000; i++ {
		p := conformance.RandomPacket(rng, rs)
		if got, want := e.Lookup(p), rs.MatchID(p); got != want {
			t.Fatalf("Lookup(%v) = %d, want %d", p, got, want)
		}
	}
}

func TestConformanceRandomSets(t *testing.T) {
	build := func(rs *rules.RuleSet) (rules.Classifier, error) {
		return Build(rs, fastOpts())
	}
	conformance.Check(t, build, 77, []int{1, 10, 100, 300}, 120)
	conformance.CheckDegenerate(t, build)
}

func TestCutSplitRemainder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rs := structuredRuleSet(rng, 300)
	opts := fastOpts()
	opts.MinCoverage = 0.25
	opts.MaxISets = 2
	opts.Remainder = cutsplit.Build
	e, err := Build(rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		p := conformance.RandomPacket(rng, rs)
		if got, want := e.Lookup(p), rs.MatchID(p); got != want {
			t.Fatalf("Lookup(%v) = %d, want %d", p, got, want)
		}
	}
}

func TestProfileTraceMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rs := structuredRuleSet(rng, 300)
	e, err := Build(rs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]rules.Packet, 256)
	for i := range pkts {
		pkts[i] = conformance.RandomPacket(rng, rs)
	}
	prof, out := e.ProfileTrace(pkts)
	for i, p := range pkts {
		if want := e.Lookup(p); out[i] != want {
			t.Fatalf("profile[%d] = %d, lookup = %d", i, out[i], want)
		}
	}
	if prof.Packets != len(pkts) || prof.Total() <= 0 {
		t.Errorf("implausible profile: %+v", prof)
	}
}

func TestLowDiversityFallsBackToRemainder(t *testing.T) {
	// All rules share the same values in every field: no useful iSets at
	// 25% minimum coverage; the engine must degrade to remainder-only and
	// stay correct (the paper's fallback behaviour, §5.2).
	rs := rules.NewRuleSet(2)
	for i := 0; i < 40; i++ {
		rs.AddAuto(rules.ExactRange(uint32(i%2)), rules.FullRange())
	}
	opts := fastOpts()
	opts.MinCoverage = 0.25
	e, err := Build(rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumISets() != 0 {
		t.Fatalf("NumISets = %d, want 0 below the coverage threshold", e.NumISets())
	}
	if got := e.Lookup(rules.Packet{0, 5}); got != 0 {
		t.Errorf("Lookup = %d, want 0", got)
	}
	if got, want := e.Stats().RemainderSize, 40; got != want {
		t.Errorf("RemainderSize = %d, want %d", got, want)
	}
}

func TestMemoryAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rs := structuredRuleSet(rng, 300)
	e, err := Build(rs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if e.MemoryFootprint() != e.RQRMIBytes()+e.RemainderBytes() {
		t.Error("MemoryFootprint must equal RQRMIBytes + RemainderBytes")
	}
	if e.RQRMIBytes() <= 0 {
		t.Error("RQRMIBytes must be positive with trained iSets")
	}
}

func TestBuildRejectsInvalidRuleSet(t *testing.T) {
	rs := rules.NewRuleSet(2)
	rs.Add(rules.Rule{ID: 0, Fields: []rules.Range{{Lo: 5, Hi: 1}, rules.FullRange()}})
	if _, err := Build(rs, fastOpts()); err == nil {
		t.Error("invalid rule-set must be rejected")
	}
}

// TestBuildRejectsNonFreezableRemainder checks that Build refuses a
// remainder without a frozen form, naming it in the error.
func TestBuildRejectsNonFreezableRemainder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rs := structuredRuleSet(rng, 200)
	opts := fastOpts()
	opts.Remainder = linear.Build
	_, err := Build(rs, opts)
	if err == nil || !strings.Contains(err.Error(), `"linear"`) {
		t.Fatalf("Build with the linear remainder: error %v, want one naming \"linear\"", err)
	}
}
