// Package rules defines the rule, packet, and rule-set model shared by every
// classifier in this repository, together with the classifier interfaces.
//
// The model follows §2.1 of the paper: a rule is a hyper-cube in a
// d-dimensional space of non-negative integers, a packet is a point, and a
// packet matches a rule when every coordinate falls inside the rule's range
// in that dimension. When several rules match, the one with the numerically
// smallest Priority wins (the paper's "priority 1 (highest)" convention).
//
// Fields are 32-bit values. Longer fields (IPv6, MAC) are split into 32-bit
// chunks, the solution adopted by the paper in §4 "Handling long fields".
package rules

import (
	"fmt"
	"math"
	"sort"
)

// MaxValue is the largest value a field can take.
const MaxValue = math.MaxUint32

// Range is an inclusive interval [Lo, Hi] over a 32-bit field.
// A wildcard is Range{0, MaxValue}; an exact match has Lo == Hi.
type Range struct {
	Lo, Hi uint32
}

// FullRange matches every value of a field.
func FullRange() Range { return Range{0, MaxValue} }

// ExactRange matches a single value.
func ExactRange(v uint32) Range { return Range{v, v} }

// PrefixRange returns the range covered by value/prefixLen, e.g.
// PrefixRange(0x0a0a0000, 16) is [10.10.0.0, 10.10.255.255].
// prefixLen must be in [0, 32].
func PrefixRange(value uint32, prefixLen int) Range {
	if prefixLen <= 0 {
		return FullRange()
	}
	if prefixLen >= 32 {
		return ExactRange(value)
	}
	mask := uint32(math.MaxUint32) << (32 - uint(prefixLen))
	lo := value & mask
	return Range{lo, lo | ^mask}
}

// Contains reports whether v falls inside the range.
func (r Range) Contains(v uint32) bool { return r.Lo <= v && v <= r.Hi }

// Overlaps reports whether the two ranges share at least one value.
func (r Range) Overlaps(o Range) bool { return r.Lo <= o.Hi && o.Lo <= r.Hi }

// Covers reports whether r fully contains o.
func (r Range) Covers(o Range) bool { return r.Lo <= o.Lo && o.Hi <= r.Hi }

// IsFull reports whether the range is a full wildcard.
func (r Range) IsFull() bool { return r.Lo == 0 && r.Hi == MaxValue }

// IsExact reports whether the range matches exactly one value.
func (r Range) IsExact() bool { return r.Lo == r.Hi }

// Size returns the number of values in the range (up to 2^32).
func (r Range) Size() uint64 { return uint64(r.Hi) - uint64(r.Lo) + 1 }

// Valid reports whether Lo <= Hi.
func (r Range) Valid() bool { return r.Lo <= r.Hi }

// CommonPrefixLen returns the length of the longest prefix that covers the
// whole range. It is the number of leading bits shared by Lo and Hi. The
// covering prefix may be strictly larger than the range unless IsPrefix.
func (r Range) CommonPrefixLen() int {
	x := r.Lo ^ r.Hi
	n := 0
	for n < 32 && x&0x80000000 == 0 {
		n++
		x <<= 1
	}
	return n
}

// IsPrefix reports whether the range is exactly a prefix, returning the
// prefix length when it is. A full wildcard is the /0 prefix.
func (r Range) IsPrefix() (int, bool) {
	n := r.CommonPrefixLen()
	if PrefixRange(r.Lo, n) == r {
		return n, true
	}
	return 0, false
}

func (r Range) String() string {
	if r.IsFull() {
		return "*"
	}
	if r.IsExact() {
		return fmt.Sprintf("%d", r.Lo)
	}
	return fmt.Sprintf("%d-%d", r.Lo, r.Hi)
}

// Packet is a point in the d-dimensional field space; Packet[i] is the value
// of field i. Classifiers must not retain or mutate the slice.
type Packet []uint32

// Rule is a multi-field matching rule.
type Rule struct {
	// ID uniquely identifies the rule within its RuleSet. It is preserved
	// across partitioning, so classifiers built on a subset can report
	// matches in terms of the original set.
	ID int
	// Priority breaks ties between overlapping rules: the numerically
	// smallest priority wins, as in Figure 2 of the paper.
	Priority int32
	// Fields holds one range per dimension.
	Fields []Range
}

// Matches reports whether the packet falls inside the rule's hyper-cube.
//
//nm:hotpath
func (r *Rule) Matches(p Packet) bool {
	if len(p) < len(r.Fields) {
		return false
	}
	for i, f := range r.Fields {
		v := p[i]
		if v < f.Lo || v > f.Hi {
			return false
		}
	}
	return true
}

// Overlaps reports whether two rules overlap in every dimension, i.e. some
// packet could match both.
func (r *Rule) Overlaps(o *Rule) bool {
	if len(r.Fields) != len(o.Fields) {
		return false
	}
	for i := range r.Fields {
		if !r.Fields[i].Overlaps(o.Fields[i]) {
			return false
		}
	}
	return true
}

// RuleSet is an ordered collection of rules over a fixed number of fields.
type RuleSet struct {
	NumFields int
	Rules     []Rule
}

// NewRuleSet returns an empty rule-set with the given dimensionality.
func NewRuleSet(numFields int) *RuleSet {
	return &RuleSet{NumFields: numFields}
}

// Add appends a rule, assigning ID and Priority from its position when they
// are unset (ID < 0 is not allowed; zero values are auto-filled only through
// AddAuto).
func (rs *RuleSet) Add(r Rule) {
	rs.Rules = append(rs.Rules, r)
}

// AddAuto appends a rule assigning the next sequential ID and priority
// (earlier rules win, mirroring typical ACL semantics).
func (rs *RuleSet) AddAuto(fields ...Range) *Rule {
	r := Rule{ID: len(rs.Rules), Priority: int32(len(rs.Rules) + 1), Fields: fields}
	rs.Rules = append(rs.Rules, r)
	return &rs.Rules[len(rs.Rules)-1]
}

// Len returns the number of rules.
func (rs *RuleSet) Len() int { return len(rs.Rules) }

// Validate checks structural invariants: every rule has NumFields valid
// ranges and IDs are unique.
func (rs *RuleSet) Validate() error {
	seen := make(map[int]struct{}, len(rs.Rules))
	for i := range rs.Rules {
		r := &rs.Rules[i]
		if len(r.Fields) != rs.NumFields {
			return fmt.Errorf("rules: rule %d has %d fields, want %d", r.ID, len(r.Fields), rs.NumFields)
		}
		for d, f := range r.Fields {
			if !f.Valid() {
				return fmt.Errorf("rules: rule %d field %d has Lo %d > Hi %d", r.ID, d, f.Lo, f.Hi)
			}
		}
		if _, dup := seen[r.ID]; dup {
			return fmt.Errorf("rules: duplicate rule ID %d", r.ID)
		}
		seen[r.ID] = struct{}{}
	}
	return nil
}

// MatchLinear is the reference classifier: a full scan returning the index
// (position in rs.Rules) of the highest-priority matching rule, or -1.
// Every other classifier in the repository is tested against it.
func (rs *RuleSet) MatchLinear(p Packet) int {
	best := -1
	var bestPrio int32 = math.MaxInt32
	for i := range rs.Rules {
		r := &rs.Rules[i]
		if r.Priority < bestPrio && r.Matches(p) {
			best = i
			bestPrio = r.Priority
		}
	}
	return best
}

// MatchID is like MatchLinear but returns the winning rule's ID instead of
// its position, matching the Classifier contract. It is the ground truth
// every classifier is tested against.
func (rs *RuleSet) MatchID(p Packet) int {
	if i := rs.MatchLinear(p); i >= 0 {
		return rs.Rules[i].ID
	}
	return -1
}

// IndexByID returns a map from rule ID to position in rs.Rules.
func (rs *RuleSet) IndexByID() map[int]int {
	m := make(map[int]int, len(rs.Rules))
	for i := range rs.Rules {
		m[rs.Rules[i].ID] = i
	}
	return m
}

// Subset returns a new rule-set containing the rules at the given positions.
// IDs and priorities are preserved.
func (rs *RuleSet) Subset(positions []int) *RuleSet {
	out := NewRuleSet(rs.NumFields)
	out.Rules = make([]Rule, 0, len(positions))
	for _, i := range positions {
		out.Rules = append(out.Rules, rs.Rules[i])
	}
	return out
}

// Clone returns a deep copy of the rule-set.
func (rs *RuleSet) Clone() *RuleSet {
	out := NewRuleSet(rs.NumFields)
	out.Rules = make([]Rule, len(rs.Rules))
	for i := range rs.Rules {
		out.Rules[i] = rs.Rules[i]
		out.Rules[i].Fields = append([]Range(nil), rs.Rules[i].Fields...)
	}
	return out
}

// SortByPriority orders rules by ascending priority value (highest priority
// first); ties broken by ID for determinism.
func (rs *RuleSet) SortByPriority() {
	sort.SliceStable(rs.Rules, func(i, j int) bool {
		if rs.Rules[i].Priority != rs.Rules[j].Priority {
			return rs.Rules[i].Priority < rs.Rules[j].Priority
		}
		return rs.Rules[i].ID < rs.Rules[j].ID
	})
}

// MaxPriorityValue returns the largest priority value present, or 0 for an
// empty set. Useful for sizing early-termination sentinels.
func (rs *RuleSet) MaxPriorityValue() int32 {
	var m int32
	for i := range rs.Rules {
		if rs.Rules[i].Priority > m {
			m = rs.Rules[i].Priority
		}
	}
	return m
}

// FieldDiversity computes the rule-set diversity of field d (§3.7): the
// number of unique values (for exact-match fields) or unique ranges in the
// field, divided by the number of rules. High diversity means the field can
// carry a large iSet.
func (rs *RuleSet) FieldDiversity(d int) float64 {
	if len(rs.Rules) == 0 {
		return 0
	}
	uniq := make(map[Range]struct{}, len(rs.Rules))
	for i := range rs.Rules {
		uniq[rs.Rules[i].Fields[d]] = struct{}{}
	}
	return float64(len(uniq)) / float64(len(rs.Rules))
}

// FieldStabbing computes, for field d, the maximum number of rule ranges
// that cover a single point. It upper-bounds the number of iSets needed when
// partitioning on this field alone and lower-bounds rule-set centrality.
func (rs *RuleSet) FieldStabbing(d int) int {
	type ev struct {
		x     uint64
		delta int
	}
	events := make([]ev, 0, 2*len(rs.Rules))
	for i := range rs.Rules {
		f := rs.Rules[i].Fields[d]
		events = append(events, ev{uint64(f.Lo), +1}, ev{uint64(f.Hi) + 1, -1})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].x != events[j].x {
			return events[i].x < events[j].x
		}
		return events[i].delta < events[j].delta // close before open at same x
	})
	cur, max := 0, 0
	for _, e := range events {
		cur += e.delta
		if cur > max {
			max = cur
		}
	}
	return max
}

// Centrality lower-bounds the rule-set centrality of §3.7 — the maximal
// number of pairwise-overlapping rules (all sharing a common point, since
// axis-aligned boxes pairwise intersecting in each dimension have a common
// point per-dimension by Helly's theorem in 1D). It is computed exactly by a
// sweep for 1-dimensional sets and bounded by the minimum per-field stabbing
// number otherwise.
func (rs *RuleSet) Centrality() int {
	if rs.NumFields == 0 || len(rs.Rules) == 0 {
		return 0
	}
	if rs.NumFields == 1 {
		return rs.FieldStabbing(0)
	}
	best := len(rs.Rules)
	for d := 0; d < rs.NumFields; d++ {
		if s := rs.FieldStabbing(d); s < best {
			best = s
		}
	}
	return best
}
