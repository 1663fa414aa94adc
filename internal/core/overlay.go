package core

import (
	"sort"

	"nuevomatch/internal/rules"
)

// This file implements the remainder delta overlay: the small mutable edge
// of the otherwise-frozen remainder. The published snapshot owns a compiled
// rules.FrozenClassifier (built by the remainder's Freeze) plus one
// immutable *remOverlay describing every update since that freeze — rules
// added (scanned lock-free in priority order) and frozen rules deleted
// (masked out of the frozen scan via a sorted skip list). The write side
// maintains the overlay copy-on-write and, when the delta outgrows
// overlayCompactThreshold, compacts it back into a fresh frozen form, so
// the read path's overlay work stays O(threshold) while updates stay cheap.

// overlayCompactThreshold is the delta size (additions plus deletions) past
// which the write side re-freezes the remainder and resets the overlay. A
// var, not a const, so tests can force frequent compactions.
var overlayCompactThreshold = 64

// remOverlay is an immutable delta over the frozen remainder. Added rules
// are stored struct-of-arrays sorted by ascending priority, so a scan can
// stop at the bound and the first match is the best. del holds the IDs of
// frozen rules deleted since the freeze, sorted ascending for the frozen
// scan's binary-search mask; rules that were added and then deleted are
// removed from the add arrays instead.
//
//nm:immutable
type remOverlay struct {
	numFields int
	addID     []int
	addPrio   []int32  // ascending
	addLo     []uint32 // stride numFields
	addHi     []uint32
	del       []int // sorted ascending
}

// size is the delta's entry count, compared against the compaction
// threshold.
func (ov *remOverlay) size() int { return len(ov.addID) + len(ov.del) }

// scan returns the best added rule beating bestPrio that matches p, or -1.
// Additions are priority-sorted, so the first match wins.
//
//nm:hotpath
func (ov *remOverlay) scan(p rules.Packet, bestPrio int32) (int, int32) {
	nf := ov.numFields
	if len(p) < nf {
		return rules.NoMatch, bestPrio
	}
	for i := range ov.addPrio {
		if ov.addPrio[i] >= bestPrio {
			break
		}
		base := i * nf
		in := uint32(1)
		for d := 0; d < nf; d++ {
			lo := ov.addLo[base+d]
			hi := ov.addHi[base+d]
			in &= b32(p[d]-lo <= hi-lo)
		}
		if in != 0 {
			return ov.addID[i], ov.addPrio[i]
		}
	}
	return rules.NoMatch, bestPrio
}

// scanBatch applies scan to a chunk, tightening bounds and recording
// winners in place (entries it cannot improve are left untouched).
//
//nm:hotpath
func (ov *remOverlay) scanBatch(pkts []rules.Packet, bounds []int32, out []int) {
	if len(ov.addPrio) == 0 {
		return
	}
	for c, p := range pkts {
		if id, prio := ov.scan(p, bounds[c]); id >= 0 {
			out[c] = id
			bounds[c] = prio
		}
	}
}

//
//nm:hotpath
func b32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// withAdd returns a new overlay with r inserted into the priority-sorted
// add arrays. The receiver is never mutated: published snapshots keep
// referencing it.
//
//nm:builder remOverlay
func (ov *remOverlay) withAdd(r rules.Rule) *remOverlay {
	nf := ov.numFields
	i := sort.Search(len(ov.addPrio), func(i int) bool { return ov.addPrio[i] > r.Priority })
	n := len(ov.addID)
	next := &remOverlay{
		numFields: nf,
		addID:     make([]int, n+1),
		addPrio:   make([]int32, n+1),
		addLo:     make([]uint32, (n+1)*nf),
		addHi:     make([]uint32, (n+1)*nf),
		del:       ov.del,
	}
	copy(next.addID, ov.addID[:i])
	copy(next.addPrio, ov.addPrio[:i])
	copy(next.addLo, ov.addLo[:i*nf])
	copy(next.addHi, ov.addHi[:i*nf])
	next.addID[i] = r.ID
	next.addPrio[i] = r.Priority
	for d, f := range r.Fields {
		next.addLo[i*nf+d] = f.Lo
		next.addHi[i*nf+d] = f.Hi
	}
	copy(next.addID[i+1:], ov.addID[i:])
	copy(next.addPrio[i+1:], ov.addPrio[i:])
	copy(next.addLo[(i+1)*nf:], ov.addLo[i*nf:])
	copy(next.addHi[(i+1)*nf:], ov.addHi[i*nf:])
	return next
}

// withDelete returns a new overlay reflecting the deletion of id: an added
// rule is dropped from the add arrays, a frozen rule joins the sorted skip
// list.
//
//nm:builder remOverlay
func (ov *remOverlay) withDelete(id int) *remOverlay {
	nf := ov.numFields
	for i, aid := range ov.addID {
		if aid != id {
			continue
		}
		n := len(ov.addID)
		next := &remOverlay{
			numFields: nf,
			addID:     make([]int, n-1),
			addPrio:   make([]int32, n-1),
			addLo:     make([]uint32, (n-1)*nf),
			addHi:     make([]uint32, (n-1)*nf),
			del:       ov.del,
		}
		copy(next.addID, ov.addID[:i])
		copy(next.addID[i:], ov.addID[i+1:])
		copy(next.addPrio, ov.addPrio[:i])
		copy(next.addPrio[i:], ov.addPrio[i+1:])
		copy(next.addLo, ov.addLo[:i*nf])
		copy(next.addLo[i*nf:], ov.addLo[(i+1)*nf:])
		copy(next.addHi, ov.addHi[:i*nf])
		copy(next.addHi[i*nf:], ov.addHi[(i+1)*nf:])
		return next
	}
	i := sort.SearchInts(ov.del, id)
	if i < len(ov.del) && ov.del[i] == id {
		return ov // already masked
	}
	del := make([]int, len(ov.del)+1)
	copy(del, ov.del[:i])
	del[i] = id
	copy(del[i+1:], ov.del[i:])
	next := *ov
	next.del = del
	return &next
}
