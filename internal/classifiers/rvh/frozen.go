package rvh

import (
	"math/bits"

	"nuevomatch/internal/classifiers/tuplehash"
	"nuevomatch/internal/rules"
)

// This file implements the compiled, immutable form of the classifier,
// mirroring the TupleMerge Frozen layout: the live group maps flatten into
// contiguous arrays (an open-addressed bucket directory per group, one
// rules.Records for the rules) that an RCU-published engine snapshot can
// own and scan without locks, maps, pointer chasing, or allocation.

// Frozen is the compiled RVH classifier: every boundary vector, group,
// bucket and rule packed into flat arrays. It implements
// rules.FrozenClassifier. Groups keep the live classifier's ascending
// bestPrio order and buckets their ascending-priority entry order, so the
// early-termination scans are identical to the live classifier's — only the
// memory layout differs.
//
//nm:immutable
type Frozen struct {
	numFields int
	numGroups int

	// Boundary vectors, flattened: field d's sorted boundaries are
	// vecBounds[vecOff[d] : vecOff[d+1]].
	vecOff    []int32
	vecBounds []uint32

	// Per-group arrays, index gi in [0, numGroups).
	gMask []uint64 // exact-field mask (bit d set: hash on field d's interval)
	gPrio []int32  // best (lowest) priority stored in group gi
	gOcc  []uint64 // 64-bit occupancy filter over hash low bits

	// Per-group open-addressed bucket directory. Group gi's slots are
	// [gSlotOff[gi], gSlotOff[gi+1]); the slot count is a power of two
	// sized for <= 1/2 load. A slot is free iff slotLen is zero (frozen
	// buckets are non-empty by construction), which terminates probes.
	gSlotOff  []int32
	slotHash  []uint64
	slotStart []int32 // first record of the bucket
	slotLen   []int32 // 0 marks a free slot

	// recs holds every bucket's rules contiguously, ascending by priority
	// within the bucket; a slot's span indexes it directly.
	recs rules.Records
}

var _ rules.FrozenClassifier = (*Frozen)(nil)

// Freeze implements rules.Freezable: it compiles the classifier's current
// contents under the read lock and returns a detached immutable form.
// Emptied buckets and emptied groups are dropped during compilation.
//
//nm:builder Frozen
func (c *Classifier) Freeze() rules.FrozenClassifier {
	c.mu.RLock()
	defer c.mu.RUnlock()

	f := &Frozen{numFields: c.numFields}
	nRules := len(c.whereIs)
	f.recs = rules.MakeRecords(c.numFields, nRules)
	f.vecOff = append(f.vecOff, 0)
	for _, v := range c.vecs {
		f.vecBounds = append(f.vecBounds, v...)
		f.vecOff = append(f.vecOff, int32(len(f.vecBounds)))
	}
	f.gSlotOff = append(f.gSlotOff, 0)

	for _, g := range c.groups {
		// Collect the group's non-empty buckets.
		type bucket struct {
			h uint64
			b []int32
		}
		var buckets []bucket
		live := 0
		for h, b := range g.buckets {
			if len(b) > 0 {
				buckets = append(buckets, bucket{h, b})
				live += len(b)
			}
		}
		if live == 0 {
			continue // group emptied by deletions: drop it
		}
		gi := f.numGroups
		f.numGroups++
		f.gMask = append(f.gMask, g.mask)
		f.gPrio = append(f.gPrio, g.bestPrio)
		f.gOcc = append(f.gOcc, 0)

		slots := 4
		for slots < 2*len(buckets) {
			slots *= 2
		}
		base := len(f.slotHash)
		f.slotHash = append(f.slotHash, make([]uint64, slots)...)
		f.slotStart = append(f.slotStart, make([]int32, slots)...)
		f.slotLen = append(f.slotLen, make([]int32, slots)...)
		f.gSlotOff = append(f.gSlotOff, int32(base+slots))

		mask := uint64(slots - 1)
		for _, bk := range buckets {
			f.gOcc[gi] |= 1 << (bk.h & 63)
			i := bk.h & mask
			for f.slotLen[base+int(i)] != 0 {
				i = (i + 1) & mask
			}
			f.slotHash[base+int(i)] = bk.h
			f.slotStart[base+int(i)] = int32(f.recs.Len())
			f.slotLen[base+int(i)] = int32(len(bk.b))
			for _, pos := range bk.b {
				f.recs.Append(&c.rls[pos])
			}
		}
	}
	return f
}

// Len implements rules.FrozenClassifier.
func (f *Frozen) Len() int { return f.recs.Len() }

// MemoryFootprint implements rules.FrozenClassifier: the actual byte size
// of the compiled arrays.
func (f *Frozen) MemoryFootprint() int {
	return 4*len(f.vecOff) + 4*len(f.vecBounds) +
		20*f.numGroups + // gMask + gPrio + gOcc
		4*len(f.gSlotOff) + 16*len(f.slotHash) + // directory
		f.recs.Bytes()
}

// intervalOf returns the interval index of v in field d — the count of
// boundaries <= v — with a manual binary search over the flattened vector
// (no sort.Search: its closure is off-limits on the hot path).
//
//nm:hotpath
func (f *Frozen) intervalOf(d int, v uint32) int32 {
	base := f.vecOff[d]
	lo, hi := base, f.vecOff[d+1]
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if f.vecBounds[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - base
}

// probe finds group gi's bucket for hash h, returning its records span.
//
//nm:hotpath
func (f *Frozen) probe(gi int, h uint64) (start, n int32) {
	base := f.gSlotOff[gi]
	mask := uint64(f.gSlotOff[gi+1]-base) - 1
	for i := h & mask; ; i = (i + 1) & mask {
		j := base + int32(i)
		if f.slotLen[j] == 0 {
			return 0, 0
		}
		if f.slotHash[j] == h {
			return f.slotStart[j], f.slotLen[j]
		}
	}
}

// groupHash hashes the packet's interval indices over the group's mask,
// memoizing per-field indices in the caller's stack arrays (idx/have) so a
// field searched for one group is free for every later group that also
// hashes it. Zero allocation: the memo lives in the caller's frame.
//
//nm:hotpath
func (f *Frozen) groupHash(p rules.Packet, mask uint64, idx *[maxMaskFields]int32, have *uint64) uint64 {
	var h uint64
	for m := mask; m != 0; m &= m - 1 {
		d := bits.TrailingZeros64(m)
		if *have&(1<<d) == 0 {
			idx[d] = f.intervalOf(d, p[d])
			*have |= 1 << d
		}
		h ^= tuplehash.MixField(d, uint32(idx[d]))
	}
	return tuplehash.Finish(h)
}

// walk is the frozen form's one bounded group walk, shared by Lookup and
// LookupBatch: the live classifier's early-terminating scan for one packet
// over the compiled arrays. The groups ascend by best priority, so it stops
// at the first group that cannot beat this packet's bound, and the per-field
// interval memo spans every group the packet visits. It returns the winner
// and its priority, or (-1, bestPrio). Zero locks, zero allocation.
//
//nm:hotpath
func (f *Frozen) walk(p rules.Packet, bestPrio int32, skip []int) (int, int32) {
	best := rules.NoMatch
	if len(p) < f.numFields {
		return best, bestPrio
	}
	var idx [maxMaskFields]int32
	var have uint64
	for gi := 0; gi < f.numGroups; gi++ {
		if f.gPrio[gi] >= bestPrio {
			break // groups ascend by best priority: nothing can win
		}
		h := f.groupHash(p, f.gMask[gi], &idx, &have)
		if f.gOcc[gi]&(1<<(h&63)) == 0 {
			continue // definite miss: skip the directory probe
		}
		start, n := f.probe(gi, h)
		if n == 0 {
			continue
		}
		if id, prio := f.recs.Scan(int(start), int(start+n), p, bestPrio, skip); id >= 0 {
			best, bestPrio = id, prio
		}
	}
	return best, bestPrio
}

// Lookup implements rules.FrozenClassifier with one bounded walk.
//
//nm:hotpath
func (f *Frozen) Lookup(p rules.Packet, bestPrio int32, skip []int) int {
	id, _ := f.walk(p, bestPrio, skip)
	return id
}

// LookupBatch implements rules.FrozenClassifier packet-major: each packet
// runs the same bounded walk as Lookup under its own bound, so it stops at
// its own cutoff group and keeps its interval memo across groups.
//
//nm:hotpath
func (f *Frozen) LookupBatch(pkts []rules.Packet, bounds []int32, skip []int, out []int) {
	for c, p := range pkts {
		if id, prio := f.walk(p, bounds[c], skip); id >= 0 {
			out[c], bounds[c] = id, prio
		}
	}
}
