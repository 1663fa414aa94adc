// Package conformance provides the shared correctness harness for every
// classifier in the repository: randomized rule-sets with realistic
// structure (prefixes, ranges, exact values, wildcards, duplicated field
// values) are classified against the linear-scan reference, both for plain
// lookups and for the early-termination (bounded) variant.
package conformance

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"nuevomatch/internal/rules"
)

// RandomRuleSet generates n rules over numFields dimensions mixing the
// structures real rule-sets exhibit: IP-like prefixes, port-like ranges,
// exact values, wildcards, and deliberate duplicates that force overlap.
func RandomRuleSet(rng *rand.Rand, n, numFields int) *rules.RuleSet {
	rs := rules.NewRuleSet(numFields)
	for i := 0; i < n; i++ {
		fields := make([]rules.Range, numFields)
		for d := range fields {
			switch rng.Intn(5) {
			case 0: // prefix
				fields[d] = rules.PrefixRange(rng.Uint32(), 4+rng.Intn(29))
			case 1: // arbitrary range
				lo := rng.Uint32()
				span := rng.Uint32() % (1 << uint(4+rng.Intn(20)))
				hi := lo + span
				if hi < lo {
					hi = rules.MaxValue
				}
				fields[d] = rules.Range{Lo: lo, Hi: hi}
			case 2: // exact
				fields[d] = rules.ExactRange(rng.Uint32() % 10000)
			case 3: // wildcard
				fields[d] = rules.FullRange()
			default: // low-diversity exact value (forces overlaps)
				fields[d] = rules.ExactRange(uint32(rng.Intn(4)))
			}
		}
		rs.AddAuto(fields...)
	}
	return rs
}

// RandomPacket returns a packet biased toward matching: half the time it is
// drawn from inside a random rule's box, otherwise uniformly.
func RandomPacket(rng *rand.Rand, rs *rules.RuleSet) rules.Packet {
	p := make(rules.Packet, rs.NumFields)
	if rs.Len() > 0 && rng.Intn(2) == 0 {
		r := &rs.Rules[rng.Intn(rs.Len())]
		for d, f := range r.Fields {
			p[d] = f.Lo + uint32(rng.Uint64()%f.Size())
		}
		return p
	}
	for d := range p {
		p[d] = rng.Uint32()
	}
	return p
}

// Check builds the classifier on randomized rule-sets and verifies that
// Lookup agrees with the reference on every probe, and — when the
// classifier implements rules.BoundedClassifier — that LookupWithBound
// honors the early-termination contract.
func Check(t *testing.T, build rules.Builder, seed int64, sizes []int, probes int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, n := range sizes {
		rs := RandomRuleSet(rng, n, 5)
		c, err := build(rs)
		if err != nil {
			t.Fatalf("build(%d rules): %v", n, err)
		}
		bounded, hasBound := c.(rules.BoundedClassifier)
		for i := 0; i < probes; i++ {
			p := RandomPacket(rng, rs)
			want := rs.MatchID(p)
			got := c.Lookup(p)
			if got != want {
				t.Fatalf("%s: size %d probe %d: Lookup(%v) = %d, want %d", c.Name(), n, i, p, got, want)
			}
			if !hasBound {
				continue
			}
			// With a bound equal to the winner's priority, the winner must
			// be suppressed (strict inequality contract).
			if want >= 0 {
				prio := priorityOf(rs, want)
				if g := bounded.LookupWithBound(p, prio); g != rules.NoMatch {
					gotPrio := priorityOf(rs, g)
					if gotPrio >= prio {
						t.Fatalf("%s: LookupWithBound(bound=%d) returned %d with prio %d", c.Name(), prio, g, gotPrio)
					}
				}
				// With a bound just above it, the winner must be found.
				if g := bounded.LookupWithBound(p, prio+1); g != want {
					t.Fatalf("%s: LookupWithBound(bound=%d) = %d, want %d", c.Name(), prio+1, g, want)
				}
			} else if g := bounded.LookupWithBound(p, 1<<30); g != rules.NoMatch {
				t.Fatalf("%s: LookupWithBound on non-matching packet = %d", c.Name(), g)
			}
		}
		if c.MemoryFootprint() < 0 {
			t.Fatalf("%s: negative memory footprint", c.Name())
		}
	}
}

// CheckDegenerate exercises the structural corner cases: an empty rule-set,
// a single wildcard rule, fully identical rules, and one-field rules.
func CheckDegenerate(t *testing.T, build rules.Builder) {
	t.Helper()
	empty := rules.NewRuleSet(5)
	c, err := build(empty)
	if err != nil {
		t.Fatalf("build(empty): %v", err)
	}
	if got := c.Lookup(rules.Packet{1, 2, 3, 4, 5}); got != rules.NoMatch {
		t.Fatalf("empty classifier returned %d", got)
	}

	wild := rules.NewRuleSet(5)
	wild.AddAuto(rules.FullRange(), rules.FullRange(), rules.FullRange(), rules.FullRange(), rules.FullRange())
	c, err = build(wild)
	if err != nil {
		t.Fatalf("build(wildcard): %v", err)
	}
	if got := c.Lookup(rules.Packet{9, 9, 9, 9, 9}); got != 0 {
		t.Fatalf("wildcard classifier returned %d, want 0", got)
	}

	same := rules.NewRuleSet(2)
	for i := 0; i < 20; i++ {
		same.AddAuto(rules.ExactRange(5), rules.Range{Lo: 10, Hi: 20})
	}
	c, err = build(same)
	if err != nil {
		t.Fatalf("build(identical): %v", err)
	}
	if got := c.Lookup(rules.Packet{5, 15}); got != 0 {
		t.Fatalf("identical-rules classifier returned %d, want 0 (best priority)", got)
	}
	if got := c.Lookup(rules.Packet{5, 21}); got != rules.NoMatch {
		t.Fatalf("identical-rules classifier returned %d, want no match", got)
	}

	one := rules.NewRuleSet(1)
	one.AddAuto(rules.Range{Lo: 100, Hi: 200})
	one.AddAuto(rules.Range{Lo: 150, Hi: 250})
	c, err = build(one)
	if err != nil {
		t.Fatalf("build(1-field): %v", err)
	}
	if got := c.Lookup(rules.Packet{175}); got != 0 {
		t.Fatalf("1-field classifier returned %d, want 0", got)
	}
}

// CheckFrozenSkip builds a rules.Freezable classifier over a randomized
// rule-set, freezes it, masks every third rule through the frozen skip
// list, and verifies that the frozen Lookup and LookupBatch agree with the
// reference over the unmasked rules under random bounds — LookupBatch must
// also lower each bound to its winner's priority and leave the entries it
// cannot improve untouched. LookupBatch is also checked on the straggler
// chunks that a walk sharing work across a chunk gets wrong or slow: every
// packet but one already at a bound no rule beats, the reverse, and one
// packet repeated under different bounds.
func CheckFrozenSkip(t *testing.T, build rules.Builder, seed int64, n, probes int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rs := RandomRuleSet(rng, n, 5)
	c, err := build(rs)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	fz, ok := c.(rules.Freezable)
	if !ok {
		t.Fatalf("%s is not rules.Freezable", c.Name())
	}
	f := fz.Freeze()
	if f.Len() != rs.Len() {
		t.Fatalf("frozen Len = %d, want %d", f.Len(), rs.Len())
	}
	var skip []int
	kept := rules.NewRuleSet(rs.NumFields)
	for i := range rs.Rules {
		if i%3 == 0 {
			skip = append(skip, rs.Rules[i].ID)
		} else {
			kept.Add(rs.Rules[i])
		}
	}
	sort.Ints(skip)

	pkts := make([]rules.Packet, probes)
	bounds := make([]int32, probes)
	for i := range pkts {
		pkts[i] = RandomPacket(rng, rs)
		bounds[i] = math.MaxInt32
		if rng.Intn(4) == 0 {
			bounds[i] = int32(rng.Intn(rs.Len() + 1))
		}
	}
	checkFrozen(t, "random", f, kept, skip, pkts, bounds)

	// Straggler chunks, one engine chunk each. A matching packet is the one
	// that can improve; closed is a bound no rule beats.
	const chunk = 128
	var hit rules.Packet
	for hit == nil {
		if p := RandomPacket(rng, kept); kept.MatchID(p) >= 0 {
			hit = p
		}
	}
	closed := int32(math.MaxInt32)
	for i := range rs.Rules {
		closed = min(closed, rs.Rules[i].Priority)
	}
	pkts, bounds = pkts[:0], bounds[:0]
	for i := 0; i < chunk; i++ {
		pkts = append(pkts, RandomPacket(rng, rs))
		bounds = append(bounds, closed)
	}
	pkts[chunk/2], bounds[chunk/2] = hit, math.MaxInt32
	checkFrozen(t, "all closed but one", f, kept, skip, pkts, bounds)
	for i := range bounds {
		bounds[i] = math.MaxInt32
	}
	bounds[chunk/2] = closed
	checkFrozen(t, "all open but one", f, kept, skip, pkts, bounds)
	// The repeated packet's bounds straddle its winner's priority.
	win := priorityOf(kept, kept.MatchID(hit))
	for i := range pkts {
		pkts[i] = hit
		bounds[i] = win - 1 + int32(i%3)
		if i%4 == 0 {
			bounds[i] = int32(rng.Intn(rs.Len() + 1))
		}
	}
	bounds[chunk-1] = math.MaxInt32
	checkFrozen(t, "one packet repeated", f, kept, skip, pkts, bounds)
}

// checkFrozen checks f's Lookup per packet and LookupBatch over the whole of
// pkts against the reference kept (the unmasked rules) under bounds.
func checkFrozen(t *testing.T, name string, f rules.FrozenClassifier, kept *rules.RuleSet, skip []int, pkts []rules.Packet, bounds []int32) {
	t.Helper()
	want := make([]int, len(pkts))
	for i, p := range pkts {
		want[i] = kept.MatchID(p)
		if want[i] >= 0 && priorityOf(kept, want[i]) >= bounds[i] {
			want[i] = rules.NoMatch
		}
		if got := f.Lookup(p, bounds[i], skip); got != want[i] {
			t.Fatalf("%s: frozen Lookup(%v, bound %d) = %d, want %d", name, p, bounds[i], got, want[i])
		}
	}
	out := make([]int, len(pkts))
	lowered := append([]int32(nil), bounds...)
	for i := range out {
		out[i] = rules.NoMatch
	}
	f.LookupBatch(pkts, lowered, skip, out)
	for i := range pkts {
		wantBound := bounds[i]
		if want[i] >= 0 {
			wantBound = priorityOf(kept, want[i])
		}
		if out[i] != want[i] || lowered[i] != wantBound {
			t.Fatalf("%s: frozen LookupBatch packet %d: got %d (bound %d), want %d (bound %d)",
				name, i, out[i], lowered[i], want[i], wantBound)
		}
	}
}

func priorityOf(rs *rules.RuleSet, id int) int32 {
	for i := range rs.Rules {
		if rs.Rules[i].ID == id {
			return rs.Rules[i].Priority
		}
	}
	return -1
}
