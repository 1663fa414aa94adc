package rules

// Classifier is the minimal lookup contract shared by every packet
// classification algorithm in the repository.
//
// Lookup returns the ID of the highest-priority matching rule, or -1 when no
// rule matches. IDs — not positions — are returned because they remain
// stable when a rule-set is partitioned into subsets (iSets, remainder) and
// under online updates. Implementations must be safe for concurrent Lookup
// calls once built.
type Classifier interface {
	// Name identifies the algorithm, e.g. "tuplemerge".
	Name() string
	// Lookup classifies one packet.
	Lookup(p Packet) int
	// MemoryFootprint returns the size in bytes of the lookup index
	// structures — models, trees, hash tables — excluding the rules
	// themselves, matching the accounting of §5.2.1 of the paper.
	MemoryFootprint() int
}

// BoundedClassifier supports the early-termination optimization of §4: the
// caller passes the best (numerically smallest) priority found so far and
// the classifier may prune any part of its index that cannot beat it.
type BoundedClassifier interface {
	Classifier
	// LookupWithBound behaves like Lookup but may return -1 early when no
	// rule with Priority < bestPrio can match.
	LookupWithBound(p Packet, bestPrio int32) int
}

// Stringer-free sentinel returned by Lookup when nothing matches.
const NoMatch = -1

// FrozenClassifier is a compiled, immutable classifier: a snapshot of an
// updatable classifier's contents flattened into contiguous arrays. All
// methods are safe for unsynchronized concurrent use — the structure is
// never mutated after Freeze returns — and perform no allocation, which is
// what lets an RCU-published engine snapshot own one and serve lookups with
// zero locks on the hot path.
//
// Online updates that happened after the freeze are layered on by the
// caller: skip (sorted ascending rule IDs) masks rules that were deleted
// from the frozen contents, and rules added since are matched by a separate
// overlay scan outside the frozen structure.
type FrozenClassifier interface {
	// Len returns the number of rules compiled into the frozen form.
	Len() int
	// MemoryFootprint mirrors Classifier.MemoryFootprint for the compiled
	// arrays.
	MemoryFootprint() int
	// Lookup returns the highest-priority rule with Priority < bestPrio
	// matching p, ignoring rules whose IDs appear in skip, or -1.
	//
	//nm:hotpath
	Lookup(p Packet, bestPrio int32, skip []int) int
	// LookupBatch classifies pkts[i] under bounds[i]: wherever some rule
	// beats bounds[i] it writes the winner into out[i] and lowers bounds[i]
	// to the winner's priority; entries it cannot improve are left
	// untouched (callers pre-fill out with their current best). bounds is
	// caller-owned scratch. Results equal per-packet Lookup.
	//
	//nm:hotpath
	LookupBatch(pkts []Packet, bounds []int32, skip []int, out []int)
}

// Skipped reports whether id appears in skip, a FrozenClassifier skip list
// (sorted ascending). Skip lists are the update overlay's deleted-rule IDs
// and stay tiny (compaction re-freezes past a threshold), and frozen
// lookups check only candidate matches, so a binary search is plenty.
//
//nm:hotpath
func Skipped(skip []int, id int) bool {
	lo, hi := 0, len(skip)-1
	for lo <= hi {
		mid := int(uint(lo+hi) >> 1)
		v := skip[mid]
		if v < id {
			lo = mid + 1
		} else if v > id {
			hi = mid - 1
		} else {
			return true
		}
	}
	return false
}

// BatchPrefetcher is optionally implemented by a FrozenClassifier whose
// probe path is dominated by cache misses on large hash arrays. The batched
// engine calls PrefetchBatch for a chunk of packets BEFORE running RQ-RMI
// inference on that chunk, so the memory system pulls the classifier's
// bucket lines toward L1 underneath the inference arithmetic and the
// subsequent LookupBatch probes hit warm cache. LookupBatch walks the chunk
// packet by packet, so the prefetch pass is the one place a chunk is
// visited table by table. Implementations must not allocate, must be safe
// for unsynchronized concurrent use, and must treat the call as a pure hint
// (correctness never depends on it) — the same hot-path contract as the
// frozen lookups, so nmlint trusts calls through it (//nm:hotpath) and the
// runtime zero-alloc guards hold implementations to it.
//
//nm:hotpath
type BatchPrefetcher interface {
	PrefetchBatch(pkts []Packet)
}

// Freezable is implemented by classifiers that can compile their current
// contents into a FrozenClassifier. It is the remainder contract: NuevoMatch
// rejects a remainder that is not Freezable, and freezes the remainder into
// each published snapshot so the lookup path never takes the remainder's
// write-side lock. Static classifiers (the decision-tree baselines) freeze
// to a view of their immutable index; updatable ones (TupleMerge, RVH) also
// implement Updatable.
type Freezable interface {
	Classifier
	// Freeze compiles the current contents. The result is immutable and
	// detached: later Insert/Delete calls on the receiver do not affect it.
	Freeze() FrozenClassifier
}

// Updatable is implemented by classifiers that support online rule updates
// (§3.9). Among the baselines only TupleMerge is designed for fast updates;
// the linear classifier implements it trivially.
type Updatable interface {
	Classifier
	// Insert adds a rule. The rule's ID must be unique in the classifier.
	Insert(r Rule) error
	// Delete removes the rule with the given ID.
	Delete(id int) error
}

// Builder constructs a classifier over a rule-set. The returned classifier
// reports matches as positions in rs.Rules.
type Builder func(rs *RuleSet) (Classifier, error)
