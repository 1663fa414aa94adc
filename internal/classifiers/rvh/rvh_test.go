package rvh

import (
	"math"
	"math/rand"
	"testing"

	"nuevomatch/internal/classifiers/conformance"
	"nuevomatch/internal/rules"
)

// TestConformance runs the shared randomized harness: Lookup against the
// linear reference plus the strict-inequality LookupWithBound contract.
func TestConformance(t *testing.T) {
	conformance.Check(t, Build, 1701, []int{1, 10, 100, 1000, 4000}, 300)
}

// TestDegenerate covers the structural corner cases (empty, wildcard-only,
// identical rules, one-field rule-sets).
func TestDegenerate(t *testing.T) {
	conformance.CheckDegenerate(t, Build)
}

// TestFrozenSkipMatchesReference runs the shared frozen-form harness: Lookup
// and LookupBatch with a skip list, under random and straggler bounds.
func TestFrozenSkipMatchesReference(t *testing.T) {
	conformance.CheckFrozenSkip(t, Build, 44, 600, 800)
}

// TestUpdateConformance interleaves inserts and deletes and checks lookups
// against the rule-set reference after every burst. Inserted rules compute
// their masks against the build-time boundary vectors, so this exercises
// the online path where new ranges straddle existing intervals.
func TestUpdateConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(1702))
	rs := conformance.RandomRuleSet(rng, 500, 5)
	c := New(rs)

	live := rules.NewRuleSet(5)
	for i := range rs.Rules {
		live.Add(rs.Rules[i])
	}
	nextID := 100000
	for step := 0; step < 30; step++ {
		for burst := 0; burst < 15; burst++ {
			if rng.Intn(2) == 0 || live.Len() < 50 {
				donor := conformance.RandomRuleSet(rng, 1, 5)
				r := donor.Rules[0]
				r.ID = nextID
				r.Priority = int32(50000 + nextID)
				nextID++
				if err := c.Insert(r); err != nil {
					t.Fatal(err)
				}
				live.Add(r)
			} else {
				victim := rng.Intn(live.Len())
				id := live.Rules[victim].ID
				if err := c.Delete(id); err != nil {
					t.Fatal(err)
				}
				live.Rules = append(live.Rules[:victim], live.Rules[victim+1:]...)
			}
		}
		for i := 0; i < 50; i++ {
			p := conformance.RandomPacket(rng, live)
			if got, want := c.Lookup(p), live.MatchID(p); got != want {
				t.Fatalf("step %d: Lookup(%v) = %d, want %d", step, p, got, want)
			}
		}
	}
}

// TestBatchAgreesWithScalar checks the frozen form's batched walk against
// per-packet bounded lookups on the live classifier.
func TestBatchAgreesWithScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1703))
	rs := conformance.RandomRuleSet(rng, 800, 5)
	c := New(rs)
	f := c.Freeze()
	const batch = 128
	pkts := make([]rules.Packet, batch)
	bounds := make([]int32, batch)
	work := make([]int32, batch)
	out := make([]int, batch)
	for round := 0; round < 20; round++ {
		for i := range pkts {
			pkts[i] = conformance.RandomPacket(rng, rs)
			bounds[i] = math.MaxInt32
			if rng.Intn(4) == 0 {
				bounds[i] = int32(rng.Intn(rs.Len() + 1))
			}
			out[i] = rules.NoMatch
		}
		copy(work, bounds)
		f.LookupBatch(pkts, work, nil, out)
		for i := range pkts {
			if want := c.LookupWithBound(pkts[i], bounds[i]); out[i] != want {
				t.Fatalf("round %d pkt %d: batch %d, scalar %d", round, i, out[i], want)
			}
		}
	}
}

// TestBoundaryCap verifies the per-field boundary vectors stay under the
// cap on endpoint-diverse rule-sets, and that sampling them down does not
// break lookups (correctness is checked against the reference).
func TestBoundaryCap(t *testing.T) {
	rng := rand.New(rand.NewSource(1704))
	rs := rules.NewRuleSet(3)
	for i := 0; i < 2000; i++ {
		lo := rng.Uint32() >> 1
		rs.AddAuto(
			rules.Range{Lo: lo, Hi: lo + rng.Uint32()>>8},
			rules.ExactRange(rng.Uint32()),
			rules.Range{Lo: rng.Uint32() >> 2, Hi: math.MaxUint32},
		)
	}
	c := New(rs)
	for d, v := range c.vecs {
		if len(v) > maxBoundariesPerField {
			t.Fatalf("field %d has %d boundaries, cap is %d", d, len(v), maxBoundariesPerField)
		}
		for i := 1; i < len(v); i++ {
			if v[i-1] >= v[i] {
				t.Fatalf("field %d boundaries not strictly ascending at %d", d, i)
			}
		}
	}
	for i := 0; i < 500; i++ {
		p := conformance.RandomPacket(rng, rs)
		if got, want := c.Lookup(p), rs.MatchID(p); got != want {
			t.Fatalf("Lookup(%v) = %d, want %d", p, got, want)
		}
	}
}

// TestGroupCount pins the structural bound: with numFields hashable fields
// there are at most 2^numFields distinct masks, so at most that many
// groups — the walk the bounded lookup prunes is short by construction.
func TestGroupCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1705))
	rs := conformance.RandomRuleSet(rng, 3000, 5)
	c := New(rs)
	if got := c.NumGroups(); got > 32 {
		t.Fatalf("5-field rule-set produced %d groups, want <= 32", got)
	}
	if c.Len() != rs.Len() {
		t.Fatalf("Len = %d, want %d", c.Len(), rs.Len())
	}
}

// TestShortPacket pins the defensive contract shared with the other
// backends: a packet with fewer fields than the rule-set matches nothing
// instead of panicking.
func TestShortPacket(t *testing.T) {
	rng := rand.New(rand.NewSource(1706))
	rs := conformance.RandomRuleSet(rng, 100, 5)
	c := New(rs)
	short := rules.Packet{1, 2}
	if got := c.Lookup(short); got != rules.NoMatch {
		t.Fatalf("short-packet Lookup = %d", got)
	}
	f := c.Freeze()
	if got := f.Lookup(short, math.MaxInt32, nil); got != rules.NoMatch {
		t.Fatalf("short-packet frozen Lookup = %d", got)
	}
}
