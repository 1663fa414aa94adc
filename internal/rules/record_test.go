package rules

import (
	"math"
	"math/rand"
	"testing"
)

// recordRange draws a field range biased to the boundaries the unsigned
// range check must get right: 0, MaxValue, lo == hi and the full range.
func recordRange(rng *rand.Rand) Range {
	switch rng.Intn(8) {
	case 0:
		return ExactRange(0)
	case 1:
		return ExactRange(MaxValue)
	case 2:
		return ExactRange(rng.Uint32())
	case 3:
		return FullRange()
	case 4:
		return Range{0, rng.Uint32()}
	case 5:
		return Range{rng.Uint32(), MaxValue}
	default:
		a, b := rng.Uint32(), rng.Uint32()
		if a > b {
			a, b = b, a
		}
		return Range{a, b}
	}
}

// recordValue draws a packet value for field f: its bounds, their
// neighbours (wrapping at 0 and MaxValue), the extremes, or a random value.
func recordValue(rng *rand.Rand, f Range) uint32 {
	switch rng.Intn(7) {
	case 0:
		return f.Lo
	case 1:
		return f.Hi
	case 2:
		return f.Lo - 1
	case 3:
		return f.Hi + 1
	case 4:
		return 0
	case 5:
		return MaxValue
	default:
		return rng.Uint32()
	}
}

// TestRecordMatchEqualsRuleMatches checks the record match against
// Rule.Matches, and the record's priority and ID against the rule's, over
// boundary-biased rules and packets, including packets shorter and longer
// than the rule.
func TestRecordMatchEqualsRuleMatches(t *testing.T) {
	for _, tc := range []struct {
		name      string
		numFields int
		seed      int64
	}{
		{"1field", 1, 1},
		{"5fields", 5, 5},
		{"8fields", 8, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			const n = 300
			rs := make([]Rule, n)
			recs := MakeRecords(tc.numFields, n)
			for i := range rs {
				fields := make([]Range, tc.numFields)
				for d := range fields {
					fields[d] = recordRange(rng)
				}
				ids := []int{i, -i - 1, math.MaxInt - i, math.MinInt + i, math.MaxInt>>8 + i}
				prios := []int32{int32(i), math.MaxInt32, math.MinInt32, -1}
				rs[i] = Rule{ID: ids[rng.Intn(len(ids))], Priority: prios[rng.Intn(len(prios))], Fields: fields}
				recs.Append(&rs[i])
			}
			if recs.Len() != n {
				t.Fatalf("Len() = %d, want %d", recs.Len(), n)
			}
			matched := 0
			for i := range rs {
				r := &rs[i]
				if got := recs.ID(i); got != r.ID {
					t.Fatalf("record %d: ID %d, want %d", i, got, r.ID)
				}
				if got := recs.Prio(i); got != r.Priority {
					t.Fatalf("record %d: priority %d, want %d", i, got, r.Priority)
				}
				for k := 0; k < 40; k++ {
					p := make(Packet, tc.numFields+rng.Intn(2))
					for d := range p {
						if d < tc.numFields {
							p[d] = recordValue(rng, r.Fields[d])
						} else {
							p[d] = rng.Uint32()
						}
					}
					if k%8 == 0 {
						p = p[:rng.Intn(tc.numFields)] // shorter than the rule
					}
					want := r.Matches(p)
					if got := recs.Match(i, p); got != want {
						t.Fatalf("record %d %v, packet %v: Match %v, Rule.Matches %v", i, r.Fields, p, got, want)
					}
					if want {
						matched++
					}
				}
			}
			if matched == 0 {
				t.Fatal("no packet matched: the draw does not exercise the match side")
			}
		})
	}
}
