// Package tuplemerge implements the TupleMerge baseline (Daly et al.,
// IEEE/ACM ToN 2019), the update-capable hash-based classifier NuevoMatch
// uses as its default remainder index. TupleMerge improves on Tuple Space
// Search in two ways reproduced here:
//
//   - Table merging: a table's tuple is a relaxed (element-wise ≤) version
//     of its rules' tuples, so rules with similar — not identical — prefix
//     lengths share one table, shrinking the number of probes per lookup.
//     New tables round lengths down to multiples of 8 bits to attract
//     future rules.
//   - Collision limiting: when one hash bucket exceeds the collision limit
//     (the paper's evaluation uses 40), the most specific colliding rules
//     are migrated into a new, tighter table.
//
// The classifier supports online Insert/Delete (§3.9 of the NuevoMatch
// paper relies on this for the remainder).
//
// One deviation from Daly et al.: they place a rule in the tightest
// compatible table, whereas here it goes to the tightest compatible table
// whose best priority already beats the rule's, if any. Tables are probed in
// ascending best-priority order and a lookup stops at the first table that
// cannot beat its bound (§4's early termination), so an online insert at a
// low priority that lands in a table with a high bound would pull that
// table forward and make every packet probe it. Offline construction
// inserts in priority order, where every compatible table qualifies, so
// built classifiers are the same as under the original rule.
package tuplemerge

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"nuevomatch/internal/classifiers/tuplehash"
	"nuevomatch/internal/rules"
)

// Config tunes the classifier.
type Config struct {
	// CollisionLimit caps one hash bucket; the paper uses 40.
	CollisionLimit int
	// RelaxBits rounds new tables' tuple lengths down to this granularity
	// and RelaxCap truncates them — the merging levers. The defaults
	// (16/16) give every field just two mask classes {0, 16}, so a handful
	// of loose tables absorb the whole rule-set and the collision limit
	// splits out tighter tables only where buckets actually overflow.
	// TupleMerge's published behaviour — roughly an order of magnitude
	// fewer tables than TSS — emerges from exactly this start-loose,
	// tighten-under-pressure design. RelaxBits=1 with RelaxCap=32
	// degenerates to TSS-shaped exact tuples.
	RelaxBits int
	RelaxCap  int
}

// DefaultConfig matches the configuration evaluated in the paper.
func DefaultConfig() Config { return Config{CollisionLimit: 40, RelaxBits: 16, RelaxCap: 16} }

type table struct {
	lens    []uint8
	buckets bucketIndex
	// occ is a 64-bit occupancy filter over hash low bits: a bucket with
	// hash h can exist only if bit h&63 is set. Deletions leave bits stale
	// (the filter over-approximates), which only costs an index probe.
	occ      uint64
	entries  int
	bestPrio int32
}

// bucketIndex maps bucket hashes to priority-sorted rule-slot slices with a
// small open-addressed table: a probe on the hot path is one or two slot
// loads instead of a general map lookup. Buckets emptied by deletions keep
// their slot (the slice stays non-nil), so probe chains never break.
type bucketIndex struct {
	hs []uint64  // slot hash; meaningful only where bs[i] != nil
	bs [][]int32 // nil marks a free slot
	n  int       // occupied slots
}

func (ix *bucketIndex) get(h uint64) []int32 {
	if len(ix.hs) == 0 {
		return nil
	}
	mask := uint64(len(ix.hs) - 1)
	for i := h & mask; ix.bs[i] != nil; i = (i + 1) & mask {
		if ix.hs[i] == h {
			return ix.bs[i]
		}
	}
	return nil
}

// put stores b (non-nil) under h, growing at 3/4 load.
func (ix *bucketIndex) put(h uint64, b []int32) {
	if 4*(ix.n+1) > 3*len(ix.hs) {
		ix.grow()
	}
	mask := uint64(len(ix.hs) - 1)
	i := h & mask
	for ix.bs[i] != nil {
		if ix.hs[i] == h {
			ix.bs[i] = b
			return
		}
		i = (i + 1) & mask
	}
	ix.hs[i] = h
	ix.bs[i] = b
	ix.n++
}

func (ix *bucketIndex) grow() {
	newCap := 16
	if len(ix.hs) > 0 {
		newCap = 2 * len(ix.hs)
	}
	oldHs, oldBs := ix.hs, ix.bs
	ix.hs = make([]uint64, newCap)
	ix.bs = make([][]int32, newCap)
	ix.n = 0
	mask := uint64(newCap - 1)
	for i, b := range oldBs {
		if b == nil || len(b) == 0 {
			continue // drop emptied buckets while rehashing
		}
		j := oldHs[i] & mask
		for ix.bs[j] != nil {
			j = (j + 1) & mask
		}
		ix.hs[j] = oldHs[i]
		ix.bs[j] = b
		ix.n++
	}
}

func (t *table) insert(c *Classifier, pos int32) {
	h := tuplehash.HashRule(&c.rules[pos], t.lens)
	t.occ |= 1 << (h & 63)
	// Buckets stay sorted by ascending priority value so lookup scans can
	// stop at the first entry that cannot beat the running best.
	b := t.buckets.get(h)
	prio := c.rules[pos].Priority
	at := sort.Search(len(b), func(i int) bool { return c.rules[b[i]].Priority > prio })
	b = append(b, 0)
	copy(b[at+1:], b[at:])
	b[at] = pos
	t.buckets.put(h, b)
	t.entries++
	if prio < t.bestPrio {
		t.bestPrio = prio
	}
	c.whereIs[c.rules[pos].ID] = ref{t, h}
}

type ref struct {
	t *table
	h uint64
}

// Classifier is the TupleMerge table set. All methods are safe for
// concurrent use; lookups take a read lock.
type Classifier struct {
	cfg Config

	mu      sync.RWMutex
	rules   []rules.Rule // slot-stable storage; holes after delete
	free    []int32      // recycled slots
	tables  []*table     // sorted by bestPrio
	prios   []int32      // prios[i] == tables[i].bestPrio, flat for the bound scan
	whereIs map[int]ref  // rule ID -> table/bucket
}

var (
	_ rules.BoundedClassifier = (*Classifier)(nil)
	_ rules.Updatable         = (*Classifier)(nil)
	_ rules.Freezable         = (*Classifier)(nil)
)

// New builds a TupleMerge classifier over a snapshot of rs.
func New(rs *rules.RuleSet, cfg Config) *Classifier {
	if cfg.CollisionLimit <= 0 {
		cfg.CollisionLimit = 40
	}
	if cfg.RelaxBits <= 0 {
		cfg.RelaxBits = 16
	}
	if cfg.RelaxCap <= 0 {
		cfg.RelaxCap = 16
	}
	c := &Classifier{cfg: cfg, whereIs: make(map[int]ref, rs.Len())}
	// Insert in priority order: more important rules pick table shapes
	// first, which is TupleMerge's offline construction order.
	order := make([]int, rs.Len())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return rs.Rules[order[a]].Priority < rs.Rules[order[b]].Priority
	})
	for _, i := range order {
		// Build-time inserts cannot collide on IDs: rs was validated.
		_ = c.Insert(rs.Rules[i])
	}
	return c
}

// Build adapts New (with defaults) to the rules.Builder signature.
func Build(rs *rules.RuleSet) (rules.Classifier, error) {
	return New(rs, DefaultConfig()), nil
}

// Name implements rules.Classifier.
func (c *Classifier) Name() string { return "tuplemerge" }

// NumTables returns the number of hash tables.
func (c *Classifier) NumTables() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.tables)
}

// Len returns the number of rules currently stored.
func (c *Classifier) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.whereIs)
}

// relax rounds tuple lengths down to the merge granularity and caps them.
func (c *Classifier) relax(lens []uint8) []uint8 {
	out := make([]uint8, len(lens))
	g := uint8(c.cfg.RelaxBits)
	cap16 := uint8(c.cfg.RelaxCap)
	for d, v := range lens {
		v = v / g * g
		if v > cap16 {
			v = cap16
		}
		out[d] = v
	}
	return out
}

// Insert implements rules.Updatable.
func (c *Classifier) Insert(r rules.Rule) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.whereIs[r.ID]; dup {
		return fmt.Errorf("tuplemerge: duplicate rule ID %d", r.ID)
	}
	var pos int32
	if n := len(c.free); n > 0 {
		pos = c.free[n-1]
		c.free = c.free[:n-1]
		c.rules[pos] = r
	} else {
		pos = int32(len(c.rules))
		c.rules = append(c.rules, r)
	}
	c.place(pos)
	return nil
}

// place routes the rule at pos into a compatible table, creating a relaxed
// table when none fits, then enforces the collision limit. Among compatible
// tables it prefers the tightest one whose bestPrio already beats the rule,
// so the insert lowers no table's bound; only when no such table exists
// does it take the tightest compatible table.
func (c *Classifier) place(pos int32) {
	r := &c.rules[pos]
	lens := tuplehash.Lens(r)
	var best *table
	bestFits := false
	for _, t := range c.tables {
		if !tuplehash.CoversTuple(t.lens, lens) {
			continue
		}
		fits := t.bestPrio <= r.Priority
		if best == nil || fits && !bestFits ||
			fits == bestFits && tuplehash.Sum(t.lens) > tuplehash.Sum(best.lens) {
			best, bestFits = t, fits
		}
	}
	if best == nil {
		best = &table{lens: c.relax(lens), bestPrio: math.MaxInt32}
		c.tables = append(c.tables, best)
	}
	best.insert(c, pos)
	c.sortTables()

	h := c.whereIs[r.ID].h
	if len(best.buckets.get(h)) > c.cfg.CollisionLimit {
		c.splitBucket(best, h)
	}
}

// splitBucket migrates the most specific rules of an overflowing bucket
// into one new, strictly tighter table whose tuple is the element-wise
// minimum of the movers' exact tuples. Finer masks spread the movers over
// distinct buckets; if they still collide there, further splits tighten the
// chain until rules are either separated or share identical exact tuples
// (which no tuple-space scheme can separate — the bucket is accepted and
// the priority-sorted scan bounds its cost).
func (c *Classifier) splitBucket(t *table, h uint64) {
	bucket := t.buckets.get(h)
	moved := make([]int32, 0, len(bucket))
	kept := bucket[:0]
	tsum := tuplehash.Sum(t.lens)
	var minLens []uint8
	for _, pos := range bucket {
		lens := tuplehash.Lens(&c.rules[pos])
		if tuplehash.Sum(lens) > tsum {
			moved = append(moved, pos)
			if minLens == nil {
				minLens = append([]uint8(nil), lens...)
			} else {
				for d := range minLens {
					if lens[d] < minLens[d] {
						minLens[d] = lens[d]
					}
				}
			}
		} else {
			kept = append(kept, pos)
		}
	}
	if len(moved) == 0 {
		return // every rule is exactly as specific as the table: accept
	}
	if tuplehash.Sum(minLens) <= tsum {
		// Element-wise min degenerated to the parent tuple: fall back to
		// the exact tuple of the most specific mover to guarantee
		// progress.
		best := moved[0]
		for _, pos := range moved[1:] {
			if tuplehash.Sum(tuplehash.Lens(&c.rules[pos])) > tuplehash.Sum(tuplehash.Lens(&c.rules[best])) {
				best = pos
			}
		}
		minLens = tuplehash.Lens(&c.rules[best])
		// Keep movers the new tuple cannot host. Appending them breaks the
		// bucket's ascending-priority invariant (the early-stop scan relies
		// on it), so restore it before storing.
		still := moved[:0]
		for _, pos := range moved {
			if tuplehash.CoversTuple(minLens, tuplehash.Lens(&c.rules[pos])) {
				still = append(still, pos)
			} else {
				kept = append(kept, pos)
			}
		}
		sort.SliceStable(kept, func(a, b int) bool {
			return c.rules[kept[a]].Priority < c.rules[kept[b]].Priority
		})
		moved = still
		if len(moved) == 0 {
			t.buckets.put(h, kept)
			return
		}
	}
	t.buckets.put(h, kept)
	t.entries -= len(moved)

	nt := &table{lens: minLens, bestPrio: math.MaxInt32}
	c.tables = append(c.tables, nt)
	var overflow []uint64
	for _, pos := range moved {
		nt.insert(c, pos)
		nh := c.whereIs[c.rules[pos].ID].h
		if len(nt.buckets.get(nh)) == c.cfg.CollisionLimit+1 {
			overflow = append(overflow, nh)
		}
	}
	c.sortTables()
	for _, nh := range overflow {
		if len(nt.buckets.get(nh)) > c.cfg.CollisionLimit {
			c.splitBucket(nt, nh)
		}
	}
}

func (c *Classifier) sortTables() {
	sort.SliceStable(c.tables, func(a, b int) bool { return c.tables[a].bestPrio < c.tables[b].bestPrio })
	if cap(c.prios) < len(c.tables) {
		c.prios = make([]int32, len(c.tables))
	}
	c.prios = c.prios[:len(c.tables)]
	for i, t := range c.tables {
		c.prios[i] = t.bestPrio
	}
}

// Delete implements rules.Updatable.
func (c *Classifier) Delete(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	loc, ok := c.whereIs[id]
	if !ok {
		return fmt.Errorf("tuplemerge: no rule with ID %d", id)
	}
	bucket := loc.t.buckets.get(loc.h)
	for i, pos := range bucket {
		if c.rules[pos].ID == id {
			copy(bucket[i:], bucket[i+1:]) // preserve priority order
			// An emptied bucket keeps its slot so probe chains stay intact.
			loc.t.buckets.put(loc.h, bucket[:len(bucket)-1])
			loc.t.entries--
			c.free = append(c.free, pos)
			break
		}
	}
	delete(c.whereIs, id)
	// bestPrio is left as-is (a lower bound remains correct for early
	// termination); table compaction happens on rebuild.
	return nil
}

// Lookup implements rules.Classifier.
func (c *Classifier) Lookup(p rules.Packet) int {
	return c.LookupWithBound(p, math.MaxInt32)
}

// LookupWithBound implements rules.BoundedClassifier; tables are sorted by
// best priority so probing stops when no table can beat the bound.
func (c *Classifier) LookupWithBound(p rules.Packet, bestPrio int32) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	best := rules.NoMatch
	for ti, bp := range c.prios {
		if bp >= bestPrio {
			break
		}
		t := c.tables[ti]
		h := tuplehash.HashPacket(p, t.lens)
		if t.occ&(1<<(h&63)) == 0 {
			continue // definite miss: skip the bucket probe
		}
		for _, ri := range t.buckets.get(h) {
			r := &c.rules[ri]
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
// the TSS baseline: fixed per-table overhead plus 16 bytes per entry.
func (c *Classifier) MemoryFootprint() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	for _, t := range c.tables {
		total += 64 + len(t.lens) + 16*t.entries
	}
	return total
}
