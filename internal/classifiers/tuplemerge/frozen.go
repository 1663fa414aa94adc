package tuplemerge

import (
	"math/bits"
	"unsafe"

	"nuevomatch/internal/classifiers/tuplehash"
	"nuevomatch/internal/cpu"
	"nuevomatch/internal/rules"
)

// This file implements the compiled, immutable form of the classifier. The
// live Classifier is built for online updates — per-bucket slices behind a
// bucket index behind an RWMutex — which is the right shape for the write
// side but the wrong one for a lock-free read path. Freeze flattens the
// whole table set into a handful of contiguous arrays (one rules.Records
// for the rules) that an RCU-published snapshot can own and scan without
// locks, maps, pointer chasing, or allocation.

// Frozen is the compiled TupleMerge: every table, bucket and rule packed
// into flat arrays. It implements rules.FrozenClassifier. Tables keep the
// live classifier's ascending-bestPrio order and buckets keep their
// ascending-priority entry order, so the early-termination scans are
// identical to the live classifier's — only the memory layout differs.
//
//nm:immutable
type Frozen struct {
	numFields int

	// tabs holds one header per table, ascending by best priority.
	tabs []ftable
	// masks holds table ti's per-field masks at [ti*numFields,
	// (ti+1)*numFields): the top n bits set for tuple length n, so a
	// zero-length field's mask is zero.
	masks []uint32
	// filter holds every table's bucket-hash filter (see ftable).
	filter []uint64
	// slots holds every table's open-addressed bucket directory.
	slots []slot

	// recs holds every bucket's rules contiguously, ascending by priority
	// within the bucket; a slot's span indexes it directly.
	recs rules.Records

	// prefetchWorth records whether the leading tables' slot directories
	// are big enough that PrefetchBatch plausibly beats the cost of the
	// extra hash pass (see prefetchMinDirBytes).
	prefetchWorth bool
}

// ftable is one frozen table's header.
type ftable struct {
	// seed is the XOR of tuplehash.MixField(d, 0) over the tuple's
	// zero-length fields. Hashing every field under the masks mixes those
	// fields in as zeros; starting from seed cancels them, so the hash is
	// bit-equal to tuplehash.HashPacket and the live bucket hashes carry
	// over unchanged.
	seed uint64
	prio int32 // best (lowest) priority stored in the table
	// The directory is slots[slotOff : slotOff+slotMask+1]; its slot count
	// is a power of two sized for <= 1/2 load.
	slotOff  int32
	slotMask uint32
	// The filter is a bitmap at filter[filtOff:] of at least 8 bits per
	// bucket, a power of two of them: a bucket with hash h can exist only
	// if bit h>>filtShift is set. Its index comes from the hash's high bits,
	// the directory's home slot from the low bits.
	filtOff   int32
	filtShift uint32
}

// slot is one directory entry: a bucket's hash and its span of records, so
// a probe reads one 16-byte slot. Frozen buckets are non-empty, so n == 0
// marks a free slot, which ends a probe.
type slot struct {
	h        uint64
	start, n int32
}

var _ rules.FrozenClassifier = (*Frozen)(nil)
var _ rules.BatchPrefetcher = (*Frozen)(nil)

// Freeze implements rules.Freezable: it compiles the classifier's current
// contents under the read lock and returns a detached immutable form.
// Emptied buckets and emptied tables are dropped during compilation.
//
//nm:builder Frozen
func (c *Classifier) Freeze() rules.FrozenClassifier {
	c.mu.RLock()
	defer c.mu.RUnlock()

	f := &Frozen{}
	nRules := len(c.whereIs)
	if len(c.tables) > 0 {
		f.numFields = len(c.tables[0].lens)
	}
	f.recs = rules.MakeRecords(f.numFields, nRules)

	type bucket struct {
		h uint64
		b []int32
	}
	var buckets []bucket
	for _, t := range c.tables {
		// Collect the table's non-empty buckets.
		buckets = buckets[:0]
		for i, b := range t.buckets.bs {
			if len(b) > 0 {
				buckets = append(buckets, bucket{t.buckets.hs[i], b})
			}
		}
		if len(buckets) == 0 {
			continue // table emptied by deletions: drop it
		}
		nSlots, nBits := 4, 64
		for nSlots < 2*len(buckets) {
			nSlots *= 2
		}
		for nBits < 8*len(buckets) {
			nBits *= 2
		}
		ft := ftable{
			prio:      t.bestPrio,
			slotOff:   int32(len(f.slots)),
			slotMask:  uint32(nSlots - 1),
			filtOff:   int32(len(f.filter)),
			filtShift: uint32(64 - bits.TrailingZeros(uint(nBits))),
		}
		for d, n := range t.lens {
			m := ^uint32(0) << (32 - uint(n))
			if m == 0 {
				ft.seed ^= tuplehash.MixField(d, 0)
			}
			f.masks = append(f.masks, m)
		}
		f.slots = append(f.slots, make([]slot, nSlots)...)
		f.filter = append(f.filter, make([]uint64, nBits/64)...)
		dir := f.slots[ft.slotOff:]
		filt := f.filter[ft.filtOff:]

		for _, bk := range buckets {
			fb := bk.h >> ft.filtShift
			filt[fb>>6] |= 1 << (fb & 63)
			i := bk.h & uint64(ft.slotMask)
			for dir[i].n != 0 {
				i = (i + 1) & uint64(ft.slotMask)
			}
			dir[i] = slot{h: bk.h, start: int32(f.recs.Len()), n: int32(len(bk.b))}
			for _, pos := range bk.b {
				f.recs.Append(&c.rules[pos])
			}
		}
		f.tabs = append(f.tabs, ft)
	}
	if nt := min(len(f.tabs), prefetchTables); nt > 0 {
		last := f.tabs[nt-1]
		dirSlots := int(last.slotOff) + int(last.slotMask) + 1
		f.prefetchWorth = int(unsafe.Sizeof(slot{}))*dirSlots >= prefetchMinDirBytes
	}
	return f
}

// Len implements rules.FrozenClassifier.
func (f *Frozen) Len() int { return f.recs.Len() }

// MemoryFootprint implements rules.FrozenClassifier: the actual byte size
// of the compiled arrays.
func (f *Frozen) MemoryFootprint() int {
	return int(unsafe.Sizeof(ftable{}))*len(f.tabs) + 4*len(f.masks) +
		8*len(f.filter) + int(unsafe.Sizeof(slot{}))*len(f.slots) +
		f.recs.Bytes()
}

// hash is tuplehash.HashPacket over the tuple whose masks are m and whose
// header seed is seed, computed without a branch per field. p must have at
// least len(m) fields.
//
//nm:hotpath
func hash(seed uint64, m []uint32, p rules.Packet) uint64 {
	p = p[:len(m)]
	for d, mk := range m {
		seed ^= tuplehash.MixField(d, p[d]&mk)
	}
	return tuplehash.Finish(seed)
}

// mayHold reports whether table t's filter admits a bucket with hash h;
// false is a definite miss.
//
//nm:hotpath
func (f *Frozen) mayHold(t *ftable, h uint64) bool {
	i := h >> t.filtShift
	return f.filter[int(t.filtOff)+int(i>>6)]&(1<<(i&63)) != 0
}

// probe finds table t's bucket for hash h, returning its records span.
//
//nm:hotpath
func (f *Frozen) probe(t *ftable, h uint64) (start, n int32) {
	mask := uint64(t.slotMask)
	for i := h & mask; ; i = (i + 1) & mask {
		s := f.slots[int(t.slotOff)+int(i)]
		if s.n == 0 || s.h == h {
			return s.start, s.n
		}
	}
}

// walk is the frozen form's one bounded table walk, shared by Lookup and
// LookupBatch: the live classifier's early-terminating scan for one packet
// over the compiled arrays. The tables ascend by best priority, so it stops
// at the first table that cannot beat this packet's bound. It returns the
// winner and its priority, or (-1, bestPrio). Zero locks, zero allocation.
//
//nm:hotpath
func (f *Frozen) walk(p rules.Packet, bestPrio int32, skip []int) (int, int32) {
	nf := f.numFields
	best := rules.NoMatch
	if len(p) < nf {
		return best, bestPrio
	}
	for ti := range f.tabs {
		t := &f.tabs[ti]
		if t.prio >= bestPrio {
			break // tables ascend by best priority: nothing can win
		}
		h := hash(t.seed, f.masks[ti*nf:ti*nf+nf], p)
		if !f.mayHold(t, h) {
			continue // definite miss: skip the directory probe
		}
		start, n := f.probe(t, h)
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

// prefetchTables caps how many leading tables PrefetchBatch touches. The
// tables ascend by best priority, so the first ones are the likeliest to be
// probed for real; prefetching deeper tables mostly evicts useful lines for
// probes the priority cutoff will skip anyway.
const prefetchTables = 2

// prefetchMinDirBytes gates PrefetchBatch on the leading tables' directory
// size. Prefetching costs a full extra hash pass over the chunk; that pays
// off only when the directory lines would otherwise miss cache. Below this
// threshold the directories fit comfortably in L2 and stay resident across
// chunks, so the hint warms lines that are already warm and the pass is
// pure overhead (measurably so on small rule-sets).
const prefetchMinDirBytes = 1 << 20

// PrefetchBatch implements rules.BatchPrefetcher: it hashes each packet
// against the leading tables and issues PREFETCHT0 for the home slot, so
// when the engine's RQ-RMI inference on the same chunk finishes,
// LookupBatch's probes land in warm cache. The filter runs first, so
// definite misses cost no prefetch slot. Pure hint: no state changes, no
// allocation, and linear-probe continuations beyond the home slot simply
// miss like they would have anyway. On builds without a prefetch
// instruction cpu.HasPrefetch is a false constant and the whole body folds
// away; on small tables prefetchWorth is false and the call is a bounds
// check and a load.
//
//nm:hotpath
func (f *Frozen) PrefetchBatch(pkts []rules.Packet) {
	if !cpu.HasPrefetch || !f.prefetchWorth {
		return
	}
	nf := f.numFields
	for ti := range f.tabs[:min(len(f.tabs), prefetchTables)] {
		t := &f.tabs[ti]
		m := f.masks[ti*nf : ti*nf+nf]
		for _, p := range pkts {
			if len(p) < nf {
				continue
			}
			h := hash(t.seed, m, p)
			if !f.mayHold(t, h) {
				continue
			}
			cpu.Prefetch(unsafe.Pointer(&f.slots[int(t.slotOff)+int(h&uint64(t.slotMask))]))
		}
	}
}

// LookupBatch implements rules.FrozenClassifier packet-major: each packet
// runs the same bounded walk as Lookup under its own bound. Each packet stops
// at its own cutoff table, so a chunk does no more work than the same
// packets looked up one by one. A table-major order would keep a table live
// while any packet in the chunk could still improve, and revisit every
// packet per table.
//
//nm:hotpath
func (f *Frozen) LookupBatch(pkts []rules.Packet, bounds []int32, skip []int, out []int) {
	for c, p := range pkts {
		if id, prio := f.walk(p, bounds[c], skip); id >= 0 {
			out[c], bounds[c] = id, prio
		}
	}
}
