package core

import (
	"math"
	"sync"

	"nuevomatch/internal/rqrmi"
	"nuevomatch/internal/rules"
)

// This file holds the read side of the engine: an immutable snapshot
// published through an atomic pointer (RCU-style). Lookups load the current
// snapshot once and then touch only flat slices — no mutexes, no Go maps, no
// per-call type assertions — which keeps the paper's compute-bound pipeline
// (§4) free of synchronization and pointer-chasing costs. Updates construct
// a replacement snapshot under the engine's write lock and publish it with a
// single atomic store; readers holding the old snapshot finish against a
// consistent view.

// liveBit reports whether bit i of a liveness bitset is set (bit i%8 of
// byte i/8, the codec's layout).
//
//nm:hotpath
func liveBit(bits []byte, i int) bool { return bits[i>>3]&(1<<(i&7)) != 0 }

// snapshot is one immutable engine state. Everything reachable from it is
// either never mutated after publication (the iSets' models, records and
// liveness bitsets, the frozen remainder and its overlay, adapter tables)
// or copied before mutation (an iSet's live bitset, and with it the isets
// slice). The §3.9 online-update remainder is served by the compiled
// frozen form plus the update overlay, so lookups never touch the live
// classifier.
//
//nm:immutable
type snapshot struct {
	// isets are the trained RQ-RMI indexes with their rule records.
	isets []isetIndex
	// rem is the frozen remainder with its overlay.
	rem remainderAdapter
}

// candidate validates model entry ent (>= 0) of the iSet against p: the
// entry's rule must beat bound, be live and match. It returns the rule's
// ID and priority.
//
//nm:hotpath
func (is *isetIndex) candidate(ent int, p rules.Packet, bound int32) (id int, prio int32, ok bool) {
	prio = is.recs.Prio(ent)
	if prio >= bound || !liveBit(is.live, ent) || !is.recs.Match(ent, p) {
		return 0, 0, false
	}
	return is.recs.ID(ent), prio, true
}

// lookup returns the iSet's validated candidate for p under bound.
//
//nm:hotpath
func (is *isetIndex) lookup(p rules.Packet, bound int32) (id int, prio int32, ok bool) {
	ent, found := is.model.LookupEntry(p[is.field])
	if !found {
		return 0, 0, false
	}
	return is.candidate(ent, p, bound)
}

// lookup runs the single-core early-termination flow of §4 against this
// snapshot.
//
//nm:hotpath
func (s *snapshot) lookup(p rules.Packet, bestPrio int32) int {
	best := rules.NoMatch
	for i := range s.isets {
		if id, prio, ok := s.isets[i].lookup(p, bestPrio); ok {
			best, bestPrio = id, prio
		}
	}
	if id := s.rem.lookupWithBound(p, bestPrio); id >= 0 {
		return id
	}
	return best
}

// batchScratch is the fixed-size per-chunk scratch of lookupBatch and of
// LookupNoEarlyTermination's one-packet remainder batch (pkt). It is
// pooled rather than stack-allocated because slices of it cross the
// rules.FrozenClassifier interface boundary, which makes escape analysis
// heap-move a stack array and cost one allocation per call; a pool hit
// costs nothing after warm-up, keeping both paths zero-alloc.
type batchScratch struct {
	keys     [rqrmi.BatchChunk]uint32
	ents     [rqrmi.BatchChunk]int32
	best     [rqrmi.BatchChunk]int
	bestPrio [rqrmi.BatchChunk]int32
	pkt      [1]rules.Packet
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// isetChunk runs every iSet's batched RQ-RMI inference over one chunk of at
// most rqrmi.BatchChunk packets, writing each packet's best validated
// candidate into best/bestPrio (len(block) entries each): the iSet half of
// lookupBatch.
//
//nm:hotpath
func (s *snapshot) isetChunk(block []rules.Packet, keys *[rqrmi.BatchChunk]uint32, ents *[rqrmi.BatchChunk]int32, best []int, bestPrio []int32) {
	n := len(block)
	for c := range block {
		best[c], bestPrio[c] = rules.NoMatch, math.MaxInt32
	}
	for i := range s.isets {
		is := &s.isets[i]
		for c, p := range block {
			keys[c] = p[is.field]
		}
		is.model.LookupEntryBatch(keys[:n], ents[:n])
		for c, p := range block {
			if ents[c] < 0 {
				continue
			}
			if id, prio, ok := is.candidate(int(ents[c]), p, bestPrio[c]); ok {
				best[c], bestPrio[c] = id, prio
			}
		}
	}
}

// lookupBatch classifies pkts into out using batched RQ-RMI inference: each
// iSet's model runs stage-by-stage across a whole chunk of packets
// (rqrmi.LookupEntryBatch), then candidates are validated against the
// iSets' rule records, and finally the remainder walks each packet of the
// chunk under the best priority found for it. Scratch comes from a pool, so the batch
// path allocates nothing in steady state.
//
//nm:hotpath
func (s *snapshot) lookupBatch(pkts []rules.Packet, out []int) {
	const chunk = rqrmi.BatchChunk
	scr := batchScratchPool.Get().(*batchScratch)
	keys := &scr.keys
	ents := &scr.ents
	best := &scr.best
	bestPrio := &scr.bestPrio
	for off := 0; off < len(pkts); off += chunk {
		n := len(pkts) - off
		if n > chunk {
			n = chunk
		}
		block := pkts[off : off+n]
		if s.rem.prefetch != nil {
			// Warm the frozen remainder's directory lines for this chunk
			// while the RQ-RMI stages below keep the core busy: by the time
			// the frozen LookupBatch probes run, their cache misses have
			// already been in flight for the whole inference.
			s.rem.prefetch.PrefetchBatch(block)
		}
		s.isetChunk(block, keys, ents, best[:n], bestPrio[:n])
		// Pre-fill with the iSet winners, then let the overlay scan and the
		// frozen walk improve them in place. The frozen LookupBatch walks
		// packet by packet, each under its own bound, so a packet the iSets
		// settled costs what it costs in lookup. No locks, no allocation.
		for c := range block {
			out[off+c] = best[c]
		}
		s.rem.overlay.scanBatch(block, bestPrio[:n], out[off:off+n])
		s.rem.frozen.LookupBatch(block, bestPrio[:n], s.rem.overlay.del, out[off:off+n])
	}
	batchScratchPool.Put(scr)
}

// --- remainder adapter ----------------------------------------------------

// remainderAdapter binds the compiled frozen remainder into the snapshot
// together with the immutable update overlay, so the whole remainder query
// runs lock-free against flat arrays: overlay additions are scanned in
// priority order, frozen tables are walked with deleted rules masked by the
// overlay's sorted skip list.
//
//nm:immutable
type remainderAdapter struct {
	frozen   rules.FrozenClassifier
	overlay  *remOverlay           // updates since the freeze
	prefetch rules.BatchPrefetcher // non-nil when frozen can pre-warm its probes
}

// newRemainderAdapter binds the write side's current frozen remainder and
// its overlay. Both are maintained copy-on-write by the write side, so
// building an adapter is O(1).
//
//nm:builder remainderAdapter
func newRemainderAdapter(frozen rules.FrozenClassifier, overlay *remOverlay) remainderAdapter {
	ra := remainderAdapter{frozen: frozen, overlay: overlay}
	if pf, ok := frozen.(rules.BatchPrefetcher); ok {
		ra.prefetch = pf
	}
	return ra
}

// lookupWithBound queries the remainder under the caller's best priority,
// returning the winning remainder rule ID or -1 when the remainder cannot
// beat the bound. The overlay's priority-sorted additions tighten the
// bound before the compiled table walk, so a high-priority insert
// short-circuits most of the frozen scan.
//
//nm:hotpath
func (ra *remainderAdapter) lookupWithBound(p rules.Packet, bestPrio int32) int {
	best := rules.NoMatch
	if id, prio := ra.overlay.scan(p, bestPrio); id >= 0 {
		best, bestPrio = id, prio
	}
	if id := ra.frozen.Lookup(p, bestPrio, ra.overlay.del); id >= 0 {
		best = id
	}
	return best
}
