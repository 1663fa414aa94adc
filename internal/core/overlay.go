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
// are records sorted by ascending priority, so a scan can stop at the bound
// and the first match is the best. del holds the IDs of frozen rules
// deleted since the freeze, sorted ascending for the frozen scan's
// binary-search mask; rules that were added and then deleted are removed
// from add instead.
//
//nm:immutable
type remOverlay struct {
	add rules.Records // ascending priority
	del []int         // sorted ascending
}

// size is the delta's entry count, compared against the compaction
// threshold.
func (ov *remOverlay) size() int { return ov.add.Len() + len(ov.del) }

// scan returns the best added rule beating bestPrio that matches p, or -1.
//
//nm:hotpath
func (ov *remOverlay) scan(p rules.Packet, bestPrio int32) (int, int32) {
	return ov.add.Scan(0, ov.add.Len(), p, bestPrio, nil)
}

// scanBatch applies scan to a chunk, tightening bounds and recording
// winners in place (entries it cannot improve are left untouched).
//
//nm:hotpath
func (ov *remOverlay) scanBatch(pkts []rules.Packet, bounds []int32, out []int) {
	if ov.add.Len() == 0 {
		return
	}
	for c, p := range pkts {
		if id, prio := ov.scan(p, bounds[c]); id >= 0 {
			out[c] = id
			bounds[c] = prio
		}
	}
}

// withAdd returns a new overlay with r inserted into the priority-sorted
// additions. The receiver is never mutated: published snapshots keep
// referencing it.
//
//nm:builder remOverlay
func (ov *remOverlay) withAdd(r rules.Rule) *remOverlay {
	i := sort.Search(ov.add.Len(), func(i int) bool { return ov.add.Prio(i) > r.Priority })
	return &remOverlay{add: ov.add.Inserted(i, &r), del: ov.del}
}

// withDelete returns a new overlay reflecting the deletion of id: an added
// rule is dropped from the additions, a frozen rule joins the sorted skip
// list.
//
//nm:builder remOverlay
func (ov *remOverlay) withDelete(id int) *remOverlay {
	for i := 0; i < ov.add.Len(); i++ {
		if ov.add.ID(i) == id {
			return &remOverlay{add: ov.add.Removed(i), del: ov.del}
		}
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
