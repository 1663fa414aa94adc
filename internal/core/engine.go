// Package core assembles the complete NuevoMatch classifier of the paper:
// the rule-set is partitioned into iSets (§3.6) indexed by RQ-RMI models,
// the remainder is indexed by an external classifier (§3.7), and lookups
// combine model inference, bounded secondary search, multi-field validation,
// and highest-priority selection (Figure 1), with the early-termination
// optimization of §4 querying the remainder last under the best priority
// found in the iSets.
//
// The engine is split RCU-style: the read side is an immutable snapshot
// (snapshot.go) published through an atomic pointer, so Lookup and
// LookupBatch run without locks or map accesses; the write side
// (updates.go) mutates state under a mutex and publishes fresh snapshots.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"nuevomatch/internal/classifiers/tuplemerge"
	"nuevomatch/internal/iset"
	"nuevomatch/internal/rqrmi"
	"nuevomatch/internal/rules"
)

// Options configures Build. The zero value reproduces the paper's default
// evaluation setup against TupleMerge: up to 4 iSets, 5% minimum coverage,
// RQ-RMI error threshold 64, TupleMerge remainder.
type Options struct {
	// MaxISets caps the number of RQ-RMI models. The paper finds 1–2 best
	// with CutSplit/NeuroCuts remainders and 4 with TupleMerge (§5.3.2).
	// Zero means the default of 4; a negative value disables iSets entirely
	// and the engine degrades to the remainder classifier alone.
	MaxISets int
	// MinCoverage discards iSets below this fraction of the rule-set:
	// 0.25 against cs/nc, 0.05 against tm in the paper's evaluation.
	// Zero means the default of 0.05; a negative value disables coverage
	// filtering so even tiny iSets are kept.
	MinCoverage float64
	// RQRMI is the per-iSet training configuration; zero fields default
	// per rqrmi.DefaultConfig for the iSet's size.
	RQRMI rqrmi.Config
	// Remainder builds the external classifier; nil means TupleMerge with
	// the paper's settings. Its product must be rules.Freezable (Build
	// rejects any other): the classifier is compiled into each published
	// snapshot and served lock-free, with a delta overlay for online
	// updates. Online updates additionally need rules.Updatable (TupleMerge
	// and RVH are; the static decision-tree baselines are not).
	Remainder rules.Builder
	// ISetFields optionally restricts which fields may carry iSets.
	ISetFields []int
}

// withDefaults fills zero values. Negative sentinels are preserved so that
// a retrain (which re-applies defaults to the stored options) keeps their
// meaning; Build resolves them at the point of use.
func (o Options) withDefaults() Options {
	if o.MaxISets == 0 {
		o.MaxISets = 4
	}
	if o.MinCoverage == 0 {
		o.MinCoverage = 0.05
	}
	if o.Remainder == nil {
		o.Remainder = tuplemerge.Build
	}
	return o
}

// maxISets resolves the MaxISets sentinel: negative disables iSets.
func (o Options) maxISets() int {
	if o.MaxISets < 0 {
		return 0
	}
	return o.MaxISets
}

// minCoverage resolves the MinCoverage sentinel: negative disables coverage
// filtering.
func (o Options) minCoverage() float64 {
	if o.MinCoverage < 0 {
		return 0
	}
	return o.MinCoverage
}

// isetIndex is one trained iSet: an RQ-RMI over one field and the rule
// records of its entries. Record j is the rule of model entry j, so a
// search result indexes it directly; the model's payloads (Values) are the
// rules' built positions, which only the codec reads. live is the
// per-entry liveness bitset (see liveBit): a delete publishes a copy with
// the entry's bit cleared, so published snapshots never see it change.
type isetIndex struct {
	field int
	model *rqrmi.Model
	recs  rules.Records
	live  []byte
}

// isetEntry locates a built rule in the iSets: entry entry of isets[iset].
type isetEntry struct {
	iset, entry int
}

// BuildStats reports what Build produced.
type BuildStats struct {
	// Coverage is the fraction of rules indexed by iSets.
	Coverage float64
	// ISetSizes lists the rule count of each trained iSet.
	ISetSizes []int
	// ISetFields lists the field each iSet indexes.
	ISetFields []int
	// RemainderSize is the number of rules left to the external classifier.
	RemainderSize int
	// TrainingTime is the total RQ-RMI training wall time.
	TrainingTime time.Duration
	// MaxSearchDistance is the largest guaranteed secondary search bound.
	MaxSearchDistance int
	// Train carries the per-iSet training statistics.
	Train []rqrmi.TrainStats
	// RemainderBackend is the Name() of the remainder classifier serving.
	RemainderBackend string
}

// Engine is a built NuevoMatch classifier. Lookups are lock-free: they load
// the current snapshot atomically and never touch the write-side state.
// Updates serialize on the write mutex and publish new snapshots (§3.9).
type Engine struct {
	opts Options

	// snap is the RCU-published read state; Lookup/LookupBatch load it once
	// per call.
	snap atomic.Pointer[snapshot]

	// mu guards everything below — the write-side state. It is never taken
	// by lookups.
	//
	//nm:lockscope
	mu    sync.Mutex
	rs    *rules.RuleSet // built rules; positions are stable
	isets []isetIndex
	// isetsPrivate reports that isets and its liveness bitsets are a copy
	// no snapshot holds yet (clearLiveLocked); publishLocked resets it.
	isetsPrivate bool
	// inISet maps each live rule ID indexed by an iSet to its entry; its
	// keys and remPos's are the live rules, two disjoint sets.
	inISet map[int]isetEntry

	remainder      rules.Freezable
	remainderRules *rules.RuleSet // current remainder content (for rebuild/stats)
	// remPos maps each remainder rule ID to its index in
	// remainderRules.Rules, so a delete swap-removes its rule in O(1).
	remPos map[int]int
	// remFrozen is the compiled form of the remainder and remOverlay the
	// immutable delta of updates since that freeze; published snapshots
	// share both, so they are maintained copy-on-write and re-frozen past
	// the compaction threshold (overlay.go).
	remFrozen  rules.FrozenClassifier
	remOverlay *remOverlay

	// retraining is set while a background Retrain is training a replacement
	// engine off-lock; while it is set, every applied update is also appended
	// to journal so it can be replayed onto the retrained state before the
	// swap (retrain.go).
	retraining bool
	journal    []journalOp

	stats  BuildStats
	ustats UpdateStats
	// publishes counts snapshot publications (write-side bookkeeping; tests
	// assert the batch journal replay publishes once, not once per op).
	publishes int
}

var _ rules.BoundedClassifier = (*Engine)(nil)

// Build trains a NuevoMatch engine over rs: it partitions the rules into
// iSets (§3.6), trains one RQ-RMI per iSet, and hands the models and the
// remainder to assembleEngine, the constructor ReadEngine uses too.
func Build(rs *rules.RuleSet, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	rs = rs.Clone()

	var part *iset.Partition
	if opts.maxISets() == 0 {
		// The sentinel means "no iSets at all" (iset.Build would treat a
		// zero MaxISets as unlimited); skip partitioning entirely.
		part = &iset.Partition{Remainder: allPositions(rs.Len())}
	} else {
		part = iset.Build(rs, iset.Options{
			MaxISets:    opts.maxISets(),
			MinCoverage: opts.minCoverage(),
			Fields:      opts.ISetFields,
		})
	}

	var stats BuildStats
	isets := make([]isetIndex, 0, len(part.ISets))
	t0 := time.Now()
	for i, is := range part.ISets {
		entries := make([]rqrmi.Entry, len(is.Positions))
		for j, pos := range is.Positions {
			entries[j] = rqrmi.Entry{Range: rs.Rules[pos].Fields[is.Field], Value: pos}
		}
		model, ts, err := rqrmi.Train(entries, opts.RQRMI)
		if err != nil {
			return nil, fmt.Errorf("core: training iSet %d (field %d): %w", i, is.Field, err)
		}
		isets = append(isets, isetIndex{field: is.Field, model: model})
		stats.Train = append(stats.Train, *ts)
		stats.MaxSearchDistance = max(stats.MaxSearchDistance, ts.MaxError)
	}
	stats.TrainingTime = time.Since(t0)
	stats.Coverage = part.Coverage()
	stats.RemainderSize = len(part.Remainder)
	return assembleEngine(opts, rs, nil, isets, rs.Subset(part.Remainder), UpdateStats{}, stats)
}

// assembleEngine is the one engine constructor: Build calls it with freshly
// trained models, ReadEngine with decoded ones. It builds the full
// write-side and read-side state from the parts — the iSets over the
// built rules rs (liveBitmap is the codec's position-indexed liveness, nil
// when every built rule is live), the remainder classifier over
// remainderRules — and publishes the first snapshot. stats carries what
// only the caller knows (training, coverage); the per-iSet sizes and
// fields and the remainder backend are filled in here. Every
// cross-reference a lookup will follow is validated.
func assembleEngine(opts Options, rs *rules.RuleSet, liveBitmap []byte, isets []isetIndex,
	remainderRules *rules.RuleSet, ustats UpdateStats, stats BuildStats) (*Engine, error) {

	e := &Engine{
		opts:   opts,
		rs:     rs,
		inISet: make(map[int]isetEntry, rs.Len()),
		stats:  stats,
		ustats: ustats,
	}

	// Reconstruct the iSets from the models: entry j of iSet i carries the
	// built position it indexes (negative values are unindexed gaps); only
	// live positions are members — a deleted iSet rule stays in the
	// immutable model and records but is masked by its iSet's liveness
	// bitset (§3.9), translated here from the codec's position layout.
	claimed := make([]bool, rs.Len())
	for i := range isets {
		vals := isets[i].model.Values()
		size := 0
		for j, pos := range vals {
			if pos < 0 {
				continue
			}
			if pos >= len(rs.Rules) {
				return nil, fmt.Errorf("core: iSet %d entry %d position %d out of range (%d built rules)", i, j, pos, len(rs.Rules))
			}
			if claimed[pos] {
				return nil, fmt.Errorf("core: built rule position %d indexed by two iSets", pos)
			}
			claimed[pos] = true
			size++
		}
		e.addISet(isets[i].field, isets[i].model, liveBitmap)
		e.stats.ISetSizes = append(e.stats.ISetSizes, size)
		e.stats.ISetFields = append(e.stats.ISetFields, isets[i].field)
	}

	// Live rules are exactly the iSet members plus the remainder rules; the
	// partitions must be disjoint.
	for i := range remainderRules.Rules {
		r := &remainderRules.Rules[i]
		if _, inModel := e.inISet[r.ID]; inModel {
			return nil, fmt.Errorf("core: rule %d is in both an iSet and the remainder", r.ID)
		}
	}

	e.remainderRules = remainderRules
	e.remPos = remainderRules.IndexByID()
	rem, err := buildRemainder(opts, remainderRules)
	if err != nil {
		return nil, fmt.Errorf("core: building remainder: %w", err)
	}
	e.remainder = rem
	e.stats.RemainderBackend = rem.Name()
	e.refreezeRemainderLocked()
	e.publishLocked()
	return e, nil
}

// buildRemainder builds the remainder classifier over rs with
// opts.Remainder. The product must be rules.Freezable, the only form the
// snapshot serves.
func buildRemainder(opts Options, rs *rules.RuleSet) (rules.Freezable, error) {
	c, err := opts.Remainder(rs)
	if err != nil {
		return nil, err
	}
	fz, ok := c.(rules.Freezable)
	if !ok {
		return nil, fmt.Errorf("remainder classifier %q is not rules.Freezable", c.Name())
	}
	return fz, nil
}

// refreezeRemainderLocked compiles the remainder's current contents into a
// fresh frozen form and resets the overlay to empty. Called at build time
// and whenever the overlay outgrows the compaction threshold.
func (e *Engine) refreezeRemainderLocked() {
	e.remFrozen = e.remainder.Freeze()
	e.remOverlay = &remOverlay{add: rules.MakeRecords(e.rs.NumFields, 0)}
}

// addISet appends the iSet of a model trained over the built rules. Entry
// j's record is built rule Values()[j]; a negative payload is an unindexed
// gap, whose record is never live and never beats a bound. An entry is
// live when its position's bit is set in posLive (the codec's
// position-indexed bitmap), or always when posLive is nil.
func (e *Engine) addISet(field int, model *rqrmi.Model, posLive []byte) {
	vals := model.Values()
	is := isetIndex{
		field: field,
		model: model,
		recs:  rules.MakeRecords(e.rs.NumFields, len(vals)),
		live:  make([]byte, (len(vals)+7)/8),
	}
	gap := rules.Rule{ID: rules.NoMatch, Priority: math.MaxInt32, Fields: make([]rules.Range, e.rs.NumFields)}
	for j, pos := range vals {
		if pos < 0 {
			is.recs.Append(&gap)
			continue
		}
		r := &e.rs.Rules[pos]
		is.recs.Append(r)
		if posLive == nil || liveBit(posLive, pos) {
			is.live[j/8] |= 1 << (j % 8)
			e.inISet[r.ID] = isetEntry{iset: len(e.isets), entry: j}
		}
	}
	e.isets = append(e.isets, is)
}

func allPositions(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// publishLocked builds a fresh snapshot from the write-side state and
// publishes it atomically. Callers hold e.mu (or are still inside Build,
// before the engine escapes).
func (e *Engine) publishLocked() {
	s := &snapshot{
		isets: e.isets,
		rem:   newRemainderAdapter(e.remFrozen, e.remOverlay),
	}
	e.publishes++
	e.isetsPrivate = false
	e.snap.Store(s)
}

// snapshot returns the current read state.
//
//nm:hotpath
func (e *Engine) snapshot() *snapshot { return e.snap.Load() }

// Name implements rules.Classifier.
func (e *Engine) Name() string { return "nuevomatch" }

// Stats returns build statistics — of the most recent (re)build: Retrain
// replaces them along with the trained state, so the accessor takes the
// write lock (it is not a hot-path call).
func (e *Engine) Stats() BuildStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// NumISets returns the number of trained RQ-RMI models.
func (e *Engine) NumISets() int { return len(e.snapshot().isets) }

// Remainder exposes the external classifier (for tests and tooling). Like
// Stats, it reads write-side state that Retrain replaces, so it locks.
func (e *Engine) Remainder() rules.Classifier {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.remainder
}

// Lookup implements rules.Classifier: query all RQ-RMIs, validate the (at
// most one) candidate per iSet, then query the remainder under the best
// priority found — the single-core early-termination flow of §4. The hot
// path is one atomic snapshot load followed by flat-array reads only: no
// locks, no maps, no type assertions.
//
//nm:hotpath
func (e *Engine) Lookup(p rules.Packet) int {
	return e.snapshot().lookup(p, math.MaxInt32)
}

// LookupWithBound implements rules.BoundedClassifier.
//
//nm:hotpath
func (e *Engine) LookupWithBound(p rules.Packet, bestPrio int32) int {
	return e.snapshot().lookup(p, bestPrio)
}

// LookupBatch classifies len(pkts) packets into out, which must have at
// least len(pkts) entries. It is the engine's primary high-throughput entry
// point: RQ-RMI inference runs stage-by-stage across packet chunks
// (amortizing per-stage overhead the way the paper's vectorized kernels do),
// candidates validate against their iSet's rule records, and the remainder
// is queried per packet under the §4 early-termination bound. Results are
// identical to calling Lookup per packet against the same snapshot.
//
//nm:hotpath
func (e *Engine) LookupBatch(pkts []rules.Packet, out []int) {
	e.snapshot().lookupBatch(pkts, out)
}

// LookupNoEarlyTermination is the ablation of the §4 early-termination
// optimization: the remainder is always queried in full, ignoring the best
// priority found in the iSets. Results are identical to Lookup; only the
// work differs. Exists for the ablation benchmarks.
//
//nm:hotpath
func (e *Engine) LookupNoEarlyTermination(p rules.Packet) int {
	s := e.snapshot()
	best := rules.NoMatch
	bestPrio := int32(math.MaxInt32)
	for i := range s.isets {
		if id, prio, ok := s.isets[i].lookup(p, bestPrio); ok {
			best, bestPrio = id, prio
		}
	}
	// A one-packet unbounded remainder batch: the overlay scan and the
	// frozen walk each lower the bound to their winner's priority, so it
	// ends as the remainder winner's priority.
	scr := batchScratchPool.Get().(*batchScratch)
	scr.pkt[0] = p
	pkts, out, bound := scr.pkt[:], scr.best[:1], scr.bestPrio[:1]
	out[0], bound[0] = rules.NoMatch, math.MaxInt32
	s.rem.overlay.scanBatch(pkts, bound, out)
	s.rem.frozen.LookupBatch(pkts, bound, s.rem.overlay.del, out)
	if out[0] >= 0 && bound[0] < bestPrio {
		best = out[0]
	}
	scr.pkt[0] = nil // an idle scratch must not pin the caller's packet
	batchScratchPool.Put(scr)
	return best
}

// NumFields returns the dimensionality of the served rule-set. It is fixed
// at build time; retrains never change it.
func (e *Engine) NumFields() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rs.NumFields
}

// MemoryFootprint implements rules.Classifier: RQ-RMI model bytes plus the
// remainder's own index (§5.2.1 accounting).
func (e *Engine) MemoryFootprint() int {
	return e.RQRMIBytes() + e.Remainder().MemoryFootprint()
}

// RQRMIBytes returns the total size of the trained models alone — the part
// that must fit in L1/L2 for inference speed (Figure 13's "iSets" bars).
func (e *Engine) RQRMIBytes() int {
	s := e.snapshot()
	b := 0
	for i := range s.isets {
		b += s.isets[i].model.MemoryFootprint()
	}
	return b
}

// RemainderBytes returns the external classifier's index size (Figure 13's
// "Remainder" bars).
func (e *Engine) RemainderBytes() int { return e.Remainder().MemoryFootprint() }
