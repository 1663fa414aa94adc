// Package rvh implements a Range-Vector Hash classifier: an update-capable
// hash-based remainder alternative to TupleMerge built around interval
// indices instead of prefix masks.
//
// At construction the rule-set's per-field range endpoints are collected
// into one sorted boundary vector per field (sampled down past a cap). The
// boundaries cut each field's value space into intervals, and any value —
// packet field or rule endpoint — maps to the interval containing it with
// one binary search. A rule whose range falls entirely inside a single
// interval of field d is "exact" in d for hashing purposes: every packet it
// matches maps to the same interval index, so the index can carry hash bits
// the way a masked prefix does in tuple-space schemes. Each rule's set of
// exact fields forms a 64-bit mask; rules sharing a mask share one hash
// group keyed by their interval indices in the masked fields. Rules too
// wide for any boundary spacing keep an empty mask and fall into a single
// priority-sorted catch-all group (the all-wildcard bucket of TSS).
//
// The group list is kept sorted by best (lowest) priority value, so bounded
// lookups stop as soon as no remaining group can beat the running best —
// the same §4 early-termination shape as the TupleMerge remainder. Because
// boundary vectors are chosen from the rule distribution itself, range-heavy
// ClassBench-style rule-sets (which defeat prefix tuples) still land in
// high-mask groups.
//
// The classifier supports online Insert/Delete (boundary vectors are fixed
// at build time; later rules simply compute their mask against the existing
// vectors) and compiles into an immutable flat form via Freeze
// (frozen.go), so the engine serves it lock-free like any other Freezable
// remainder.
package rvh

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"nuevomatch/internal/classifiers/tuplehash"
	"nuevomatch/internal/rules"
)

// maxBoundariesPerField caps each field's boundary vector. More boundaries
// mean finer intervals (more rules hash on the field) but deeper binary
// searches; past the cap the collected endpoints are sampled evenly, which
// only coarsens masks — never correctness.
const maxBoundariesPerField = 256

// maxMaskFields is how many leading fields can carry hash bits (one bit per
// field in a uint64 mask). The engine codec caps rule-sets at 64 fields, so
// in practice every field participates.
const maxMaskFields = 64

// group is one hash group: all rules sharing an exact-field mask, bucketed
// by the hash of their interval indices in the masked fields. The empty
// mask hashes no fields, so its rules share the single h=Finish(0) bucket —
// the catch-all — with no special casing.
type group struct {
	mask uint64
	// buckets maps interval hashes to priority-sorted rule-slot slices.
	// The live side is only read under the RWMutex (the lock-free read path
	// is the frozen form), so a plain map is the right shape here.
	buckets map[uint64][]int32
	// occ is a 64-bit occupancy filter over hash low bits, mirroring the
	// TupleMerge tables': deletions leave bits stale, costing only a probe.
	occ      uint64
	entries  int
	bestPrio int32
}

type gref struct {
	g *group
	h uint64
}

// Classifier is the live, updatable RVH classifier. All methods are safe
// for concurrent use; lookups take a read lock (the engine's zero-lock path
// serves the Frozen form instead).
type Classifier struct {
	mu        sync.RWMutex
	numFields int
	// vecs holds one sorted boundary vector per field, fixed after New.
	vecs    [][]uint32
	rls     []rules.Rule // slot-stable storage; holes after delete
	free    []int32      // recycled slots
	groups  []*group     // sorted by bestPrio
	prios   []int32      // prios[i] == groups[i].bestPrio, flat for the bound scan
	whereIs map[int]gref // rule ID -> group/bucket
	byMask  map[uint64]*group
}

var (
	_ rules.BoundedClassifier = (*Classifier)(nil)
	_ rules.Updatable         = (*Classifier)(nil)
	_ rules.Freezable         = (*Classifier)(nil)
)

// New builds an RVH classifier over a snapshot of rs: boundary vectors are
// derived from the rule-set's range endpoints, then every rule is inserted.
func New(rs *rules.RuleSet) *Classifier {
	c := &Classifier{
		numFields: rs.NumFields,
		vecs:      buildBoundaries(rs),
		whereIs:   make(map[int]gref, rs.Len()),
		byMask:    make(map[uint64]*group),
	}
	for i := range rs.Rules {
		// Build-time inserts cannot collide on IDs: rs was validated.
		_ = c.Insert(rs.Rules[i])
	}
	return c
}

// Build adapts New to the rules.Builder signature.
func Build(rs *rules.RuleSet) (rules.Classifier, error) {
	return New(rs), nil
}

// buildBoundaries collects each field's distinct range endpoints (Lo, and
// Hi+1 — the first value past the range), sorts them, and samples evenly
// past the cap. Dropping boundaries only merges adjacent intervals: rules
// that then span the wider interval lose the field's mask bit and fall to a
// looser group, which stays correct.
func buildBoundaries(rs *rules.RuleSet) [][]uint32 {
	vecs := make([][]uint32, rs.NumFields)
	for d := 0; d < rs.NumFields; d++ {
		seen := make(map[uint32]struct{}, 2*rs.Len())
		for i := range rs.Rules {
			f := rs.Rules[i].Fields[d]
			seen[f.Lo] = struct{}{}
			if f.Hi != math.MaxUint32 {
				seen[f.Hi+1] = struct{}{}
			}
		}
		v := make([]uint32, 0, len(seen))
		for b := range seen {
			v = append(v, b)
		}
		sort.Slice(v, func(a, b int) bool { return v[a] < v[b] })
		if len(v) > maxBoundariesPerField {
			sampled := make([]uint32, 0, maxBoundariesPerField)
			for i := 0; i < maxBoundariesPerField; i++ {
				sampled = append(sampled, v[i*len(v)/maxBoundariesPerField])
			}
			v = sampled
		}
		vecs[d] = v
	}
	return vecs
}

// intervalOf returns the index of the interval containing v in field d: the
// number of boundaries <= v. Monotone in v, so a rule whose Lo and Hi share
// an index contains only packet values with that index.
func (c *Classifier) intervalOf(d int, v uint32) int32 {
	vec := c.vecs[d]
	lo, hi := 0, len(vec)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if vec[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// maskOf computes the rule's exact-field mask: bit d is set when the rule's
// range in field d falls inside one interval.
func (c *Classifier) maskOf(r *rules.Rule) uint64 {
	var m uint64
	nf := c.numFields
	if nf > maxMaskFields {
		nf = maxMaskFields
	}
	for d := 0; d < nf; d++ {
		f := r.Fields[d]
		if c.intervalOf(d, f.Lo) == c.intervalOf(d, f.Hi) {
			m |= 1 << d
		}
	}
	return m
}

// hashRule hashes the rule's interval indices in the masked fields. A
// packet the rule matches hashes identically under hashPacketMasked because
// the mask certifies every matched value shares the rule's interval.
func (c *Classifier) hashRule(r *rules.Rule, mask uint64) uint64 {
	var h uint64
	for m := mask; m != 0; m &= m - 1 {
		d := bits.TrailingZeros64(m)
		h ^= tuplehash.MixField(d, uint32(c.intervalOf(d, r.Fields[d].Lo)))
	}
	return tuplehash.Finish(h)
}

// hashPacketMasked hashes the packet's interval indices in the masked
// fields.
func (c *Classifier) hashPacketMasked(p rules.Packet, mask uint64) uint64 {
	var h uint64
	for m := mask; m != 0; m &= m - 1 {
		d := bits.TrailingZeros64(m)
		h ^= tuplehash.MixField(d, uint32(c.intervalOf(d, p[d])))
	}
	return tuplehash.Finish(h)
}

// Name implements rules.Classifier.
func (c *Classifier) Name() string { return "rvh" }

// Len returns the number of rules currently stored.
func (c *Classifier) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.whereIs)
}

// NumGroups returns the number of hash groups (distinct exact-field masks).
func (c *Classifier) NumGroups() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.groups)
}

// Insert implements rules.Updatable. Boundary vectors are fixed, so an
// insert is a mask computation, a hash, and one sorted bucket insertion.
func (c *Classifier) Insert(r rules.Rule) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.whereIs[r.ID]; dup {
		return fmt.Errorf("rvh: duplicate rule ID %d", r.ID)
	}
	var pos int32
	if n := len(c.free); n > 0 {
		pos = c.free[n-1]
		c.free = c.free[:n-1]
		c.rls[pos] = r
	} else {
		pos = int32(len(c.rls))
		c.rls = append(c.rls, r)
	}
	mask := c.maskOf(&c.rls[pos])
	g := c.byMask[mask]
	if g == nil {
		g = &group{mask: mask, buckets: make(map[uint64][]int32), bestPrio: math.MaxInt32}
		c.byMask[mask] = g
		c.groups = append(c.groups, g)
	}
	h := c.hashRule(&c.rls[pos], mask)
	g.occ |= 1 << (h & 63)
	// Buckets stay sorted by ascending priority value so lookup scans can
	// stop at the first entry that cannot beat the running best.
	b := g.buckets[h]
	prio := r.Priority
	at := sort.Search(len(b), func(i int) bool { return c.rls[b[i]].Priority > prio })
	b = append(b, 0)
	copy(b[at+1:], b[at:])
	b[at] = pos
	g.buckets[h] = b
	g.entries++
	if prio < g.bestPrio {
		g.bestPrio = prio
	}
	c.whereIs[r.ID] = gref{g, h}
	c.sortGroups()
	return nil
}

func (c *Classifier) sortGroups() {
	sort.SliceStable(c.groups, func(a, b int) bool { return c.groups[a].bestPrio < c.groups[b].bestPrio })
	if cap(c.prios) < len(c.groups) {
		c.prios = make([]int32, len(c.groups))
	}
	c.prios = c.prios[:len(c.groups)]
	for i, g := range c.groups {
		c.prios[i] = g.bestPrio
	}
}

// Delete implements rules.Updatable.
func (c *Classifier) Delete(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	loc, ok := c.whereIs[id]
	if !ok {
		return fmt.Errorf("rvh: no rule with ID %d", id)
	}
	bucket := loc.g.buckets[loc.h]
	for i, pos := range bucket {
		if c.rls[pos].ID == id {
			copy(bucket[i:], bucket[i+1:]) // preserve priority order
			loc.g.buckets[loc.h] = bucket[:len(bucket)-1]
			loc.g.entries--
			c.free = append(c.free, pos)
			break
		}
	}
	delete(c.whereIs, id)
	// bestPrio is left as-is (a lower bound remains correct for early
	// termination); group compaction happens on the next Freeze.
	return nil
}

// Lookup implements rules.Classifier.
func (c *Classifier) Lookup(p rules.Packet) int {
	return c.LookupWithBound(p, math.MaxInt32)
}

// LookupWithBound implements rules.BoundedClassifier; groups are sorted by
// best priority so probing stops when no group can beat the bound.
func (c *Classifier) LookupWithBound(p rules.Packet, bestPrio int32) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	best := rules.NoMatch
	if len(p) < c.numFields {
		return best
	}
	for gi, bp := range c.prios {
		if bp >= bestPrio {
			break
		}
		g := c.groups[gi]
		h := c.hashPacketMasked(p, g.mask)
		if g.occ&(1<<(h&63)) == 0 {
			continue // definite miss: skip the map probe
		}
		for _, ri := range g.buckets[h] {
			r := &c.rls[ri]
			if r.Priority >= bestPrio {
				break // bucket is priority-sorted
			}
			if r.Matches(p) {
				best = r.ID
				bestPrio = r.Priority
			}
		}
	}
	return best
}

// MemoryFootprint implements rules.Classifier with the same accounting as
// the other hash-based baselines: the boundary vectors, fixed per-group
// overhead, and 16 bytes per entry.
func (c *Classifier) MemoryFootprint() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	for _, v := range c.vecs {
		total += 4 * len(v)
	}
	for _, g := range c.groups {
		total += 64 + 16*g.entries
	}
	return total
}
