// Package rqrmi implements the Range-Query Recursive Model Index of the
// paper (§3.3–§3.5): a staged hierarchy of tiny neural networks that maps
// 32-bit keys to the index of the matching range in a sorted array of
// non-overlapping ranges.
//
// Training. The paper trains every submodel with TensorFlow and Adam on
// keys sampled from its responsibility, and retrains leaves whose error
// bound misses the target (§3.5.4–§3.5.6). This implementation deviates:
// each submodel is fitted directly (fit.go), by a deterministic minimax
// piecewise-linear fit of the index staircase it is responsible for,
// written into the same network weights. The guarantee is unchanged — the
// stored bounds come from the exact analysis below, whatever produced the
// weights — and a build takes tenths of a second instead of seconds.
//
// The model guarantees correct lookups for every key covered by a range:
// training computes a per-leaf worst-case prediction error (Theorem A.13)
// and Lookup searches the value array within that bound. Keys that fall in a
// gap between ranges return "not found".
//
// Exactness. The paper computes trigger and transition inputs analytically
// over the reals and argues correctness in exact arithmetic. In floating
// point, solved roots can be off by ulps, so this implementation grounds the
// analysis on the integer key lattice, where every query lives: keys are
// scaled by 2^-32 (exact in float64), ReLU kinks isolate at most one
// ambiguous lattice key each, and quantization transitions are located by
// monotone binary search on the lattice with the same eval used at lookup
// time. The resulting responsibilities and error bounds are exact for every
// possible query, not merely with high probability. This strengthens the
// float32 implementation the paper describes in §4.
package rqrmi

import (
	"fmt"
	"sort"

	"nuevomatch/internal/rules"
)

// scale maps a uint32 key into [0,1). Multiplication by a power of two is
// exact in IEEE-754, so distinct keys map to distinct x values.
const scale = 1.0 / (1 << 32)

// clampHi is the largest float64 below 1.0; the output trimming function H
// of Definition 3.1 maps into [0, clampHi].
const clampHi = 1 - 1.0/(1<<53)

// Entry associates one range with an opaque payload (for NuevoMatch: the
// rule's position in the original rule-set). Ranges must be pairwise
// non-overlapping within one model.
type Entry struct {
	Range rules.Range
	Value int
}

// submodel is one node of the RQ-RMI: the 3-layer network of Definition 3.1
// preceded by an affine input normalization u = (x-inLo)/inSpan mapping the
// submodel's responsibility hull to [0,1]. The composition remains piecewise
// linear in x, so the paper's analytic machinery applies unchanged; the
// normalization only keeps the weights of leaves whose responsibility is a
// sliver of the domain well scaled.
type submodel struct {
	w1, b1 []float64
	w2     []float64
	b2     float64
	inLo   float64
	inSpan float64 // > 0
}

// evalX computes M(x) = H(N(u(x))) ∈ [0, 1) for a scaled input.
//
//nm:hotpath
func (s *submodel) evalX(x float64) float64 {
	u := (x - s.inLo) / s.inSpan
	y := s.b2
	for k, w := range s.w1 {
		z := u*w + s.b1[k]
		if z > 0 {
			y += s.w2[k] * z
		}
	}
	if y < 0 {
		return 0
	}
	if y >= 1 {
		return clampHi
	}
	return y
}

// bucket quantizes the submodel output at key k into w buckets:
// ⌊M(k·2^-32)·w⌋ clamped to [0, w-1]. This is fi of Definition A.2 and is
// the exact operation performed during inference.
//
//nm:hotpath
func (s *submodel) bucket(k uint64, w int) int {
	b := int(s.evalX(float64(k)*scale) * float64(w))
	if b < 0 {
		return 0
	}
	if b >= w {
		return w - 1
	}
	return b
}

// sizeBytes is the serialized footprint of one submodel using the float32
// weight accounting of the paper's implementation (§4): 3h+1 weights plus
// the two normalization scalars.
func (s *submodel) sizeBytes() int { return (3*len(s.w1) + 1 + 2) * 4 }

// Model is a trained RQ-RMI over a set of non-overlapping ranges.
type Model struct {
	stages [][]submodel
	widths []int // widths[i] == len(stages[i])

	entries []Entry
	// los/his are the inclusive range boundaries of entries, kept in flat
	// slices for cache-friendly binary search (the paper packs field values
	// from different rules into the same cache lines, §4).
	los, his []uint32
	// errs[j] is the guaranteed worst-case index prediction error of leaf
	// submodel j over its responsibility, plus the configured safety slack.
	errs   []int32
	maxErr int32

	// flat32 is the single-precision parameter form of §4 consumed by the
	// batched kernel; nil when flatten32 rejects the submodels (batched
	// lookups then resolve each key with LookupEntry).
	flat32 *flatStages32
	// errs32[j] is the float32-path search bound for leaf j: the float64
	// bound re-validated under float32 arithmetic at finalize time and
	// widened where measurement demanded. Correctness does not rest on it —
	// the batched search detects window overflow and falls back to the
	// exact scalar path — so it is purely a performance parameter.
	errs32 []int32
	// vals mirrors the entry payloads in a flat slice so lookups touch 8
	// bytes per candidate instead of a 24-byte Entry. SetValue keeps it in
	// sync.
	vals []int
	// coarse is a presence bitmap over the top 16 bits of the key space
	// (1024 words, 8KB): bit b is set iff some entry's range intersects
	// bucket b. A key whose bucket bit is clear lies in a gap between
	// ranges, so lookups skip inference and search entirely. It
	// over-approximates coverage, never the reverse.
	coarse []uint64
}

// coarseHit reports whether key's bucket may be covered by an entry.
//
//nm:hotpath
func (m *Model) coarseHit(key uint32) bool {
	b := key >> 16
	return m.coarse[b>>6]&(1<<(b&63)) != 0
}

// finalize precomputes the float32 parameter form, the flat payload array
// and the coarse bitmap; Train and ReadModel call it once the staged
// submodels and entries are in place.
func (m *Model) finalize() {
	m.flat32 = flatten32(m.stages)
	if m.flat32 != nil && len(m.entries) > 0 {
		m.revalidateF32()
	}
	m.vals = make([]int, len(m.entries))
	for i := range m.entries {
		m.vals[i] = m.entries[i].Value
	}
	m.coarse = make([]uint64, 1024)
	for i := range m.entries {
		b0, b1 := m.los[i]>>16, m.his[i]>>16
		w0, w1 := b0>>6, b1>>6
		if w0 == w1 {
			for b := b0; b <= b1; b++ {
				m.coarse[w0] |= 1 << (b & 63)
			}
			continue
		}
		for b := b0; b>>6 == w0; b++ {
			m.coarse[w0] |= 1 << (b & 63)
		}
		for w := w0 + 1; w < w1; w++ {
			m.coarse[w] = ^uint64(0)
		}
		for b := w1 << 6; b <= b1; b++ {
			m.coarse[w1] |= 1 << (b & 63)
		}
	}
}

// revalidateF32 re-measures the per-leaf prediction error under float32
// arithmetic. The trained bounds in errs are exact theorems about the
// float64 pipeline; the float32 pipeline rounds differently, so its
// predictions can land farther out. Probing every entry's boundary keys and
// midpoint through the float32 router measures the drift where it is
// largest (predictions are piecewise monotone between boundaries) and
// widens any leaf whose measured error reaches its float64 bound. Residual
// escapes — possible in principle for unprobed interior keys — are caught
// at lookup time by the window-overflow check, which reroutes the key to
// the exact scalar path, so the bounds here tune the fast path rather than
// carry correctness.
func (m *Model) revalidateF32() {
	f := m.flat32
	n := len(m.entries)
	m.errs32 = make([]int32, len(m.errs))
	copy(m.errs32, m.errs)
	probe := func(key uint32, want int32) {
		leaf, pred := f.route(key, m.widths, n)
		d := pred - want
		if d < 0 {
			d = -d
		}
		// Widen with one entry of slack once measurement touches the bound:
		// nearby unprobed keys can only be marginally worse, and the
		// overflow fallback covers anything beyond.
		if d >= m.errs32[leaf] {
			m.errs32[leaf] = d + 1
		}
	}
	for i := range m.entries {
		lo, hi := m.los[i], m.his[i]
		probe(lo, int32(i))
		probe(hi, int32(i))
		if mid := uint32((uint64(lo) + uint64(hi)) / 2); mid != lo && mid != hi {
			probe(mid, int32(i))
		}
	}
}

// Values returns the flat payload array, indexed like Entries. The slice is
// shared; callers must not modify it directly (use SetValue).
//
//nm:hotpath
func (m *Model) Values() []int { return m.vals }

// Len returns the number of indexed ranges.
func (m *Model) Len() int { return len(m.entries) }

// Entries returns the model's sorted entries. The slice is shared; callers
// must not modify the ranges (SetValue may rewrite payloads).
func (m *Model) Entries() []Entry { return m.entries }

// MaxError returns the largest per-leaf guaranteed search distance.
func (m *Model) MaxError() int { return int(m.maxErr) }

// NumStages returns the number of model stages.
func (m *Model) NumStages() int { return len(m.stages) }

// NumSubmodels returns the total number of submodels across stages.
func (m *Model) NumSubmodels() int {
	n := 0
	for _, st := range m.stages {
		n += len(st)
	}
	return n
}

// MemoryFootprint returns the byte size of the model itself — submodel
// weights and per-leaf error bounds — which is what must stay cache-resident
// for fast inference (§5.2.1). The sorted range array walked by the
// secondary search is accounted separately by ValueArrayBytes.
func (m *Model) MemoryFootprint() int {
	b := 8 // stage-width bookkeeping
	for _, st := range m.stages {
		for i := range st {
			b += st[i].sizeBytes()
		}
	}
	return b + 4*len(m.errs)
}

// ValueArrayBytes returns the byte size of the sorted per-field boundary
// array scanned by the secondary search plus the payload indices and the
// coarse gap bitmap.
func (m *Model) ValueArrayBytes() int { return 12*len(m.entries) + 8*len(m.coarse) }

// route runs the staged inference of §3.1: each stage's prediction selects
// the submodel of the next stage; the leaf predicts the entry index.
//
//nm:hotpath
func (m *Model) route(k uint64) (leaf, pred int) {
	j := 0
	last := len(m.stages) - 1
	for i := 0; i < last; i++ {
		j = m.stages[i][j].bucket(k, m.widths[i+1])
	}
	return j, m.stages[last][j].bucket(k, len(m.entries))
}

// Lookup returns the payload of the range containing key; ok is false when
// no range contains it. The cost is NumStages submodel inferences plus a
// binary search over at most 2·err+1 entries.
func (m *Model) Lookup(key uint32) (value int, ok bool) {
	i, ok := m.LookupEntry(key)
	if !ok {
		return 0, false
	}
	return m.entries[i].Value, true
}

// LookupEntry is like Lookup but returns the matched entry position.
//
//nm:hotpath
func (m *Model) LookupEntry(key uint32) (index int, ok bool) {
	if len(m.entries) == 0 || !m.coarseHit(key) {
		return 0, false // empty, or provably in a gap between ranges
	}
	pred, e := m.Predict(key)
	return m.Search(key, pred, e)
}

// BatchChunk is the block size used by LookupEntryBatch: large enough to
// amortize per-stage overhead and keep many independent loads in flight
// during the lockstep search, small enough that the per-chunk scratch stays
// on the stack and the keys stay in L1 across stages.
const BatchChunk = 128

// maxGroupWidth bounds the stage width for which the batched path groups
// keys by submodel; wider stages (possible only in hand-built serialized
// models) fall back to scattered per-key evaluation.
const maxGroupWidth = 512

// LookupEntryBatch resolves a batch of keys at once, writing the matched
// entry position (or -1) for keys[i] into out[i]. Unlike per-key LookupEntry,
// it runs each RQ-RMI stage across the whole chunk before advancing to the
// next, grouping the chunk's keys by the submodel that owns them: every
// submodel then evaluates its keys through the single-precision kernel of
// §4 (batch32.go), which is the data-parallel amortization the paper's SIMD
// kernels exploit (Table 1). The build and CPU pick the kernel: AVX2
// assembly on amd64 hosts that have it, the bit-identical pure-Go form
// otherwise (and under the noasm build tag). A model without a float32 form
// (only hand-built or corrupted serialized models lack one) resolves each
// key with LookupEntry. Either way results are bit-identical to LookupEntry.
// out must have at least len(keys) entries.
//
//nm:hotpath
func (m *Model) LookupEntryBatch(keys []uint32, out []int32) {
	if m.flat32 != nil && len(m.entries) > 0 {
		m.lookupEntryBatchF32(keys, out, asmKernelAvailable)
		return
	}
	for i, k := range keys {
		if idx, ok := m.LookupEntry(k); ok {
			out[i] = int32(idx)
		} else {
			out[i] = -1
		}
	}
}

// SetValue rewrites the payload at entry position i, keeping the flat
// payload mirror in sync. Not safe against concurrent lookups; NuevoMatch's
// snapshot engine tracks liveness outside the model instead.
func (m *Model) SetValue(i, value int) {
	m.entries[i].Value = value
	if m.vals != nil {
		m.vals[i] = value
	}
}

// Predict runs only the model inference: the staged routing plus the leaf's
// index prediction and its guaranteed error bound. Together with Search it
// splits Lookup into its two phases so callers can profile them separately
// (the Figure 14 breakdown).
//
//nm:hotpath
func (m *Model) Predict(key uint32) (pred, errBound int) {
	if len(m.entries) == 0 {
		return 0, 0
	}
	leaf, pred := m.route(uint64(key))
	return pred, int(m.errs[leaf])
}

// Search performs the secondary search around a prediction obtained from
// Predict, returning the matching entry position.
//
//nm:hotpath
func (m *Model) Search(key uint32, pred, errBound int) (index int, ok bool) {
	if len(m.entries) == 0 {
		return 0, false
	}
	lo, hi := pred-errBound, pred+errBound
	if lo < 0 {
		lo = 0
	}
	if n := len(m.entries) - 1; hi > n {
		hi = n
	}
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if m.los[mid] <= key {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if m.los[lo] <= key && key <= m.his[lo] {
		return lo, true
	}
	return 0, false
}

// validateEntries sorts entries by range start and rejects overlap.
func validateEntries(entries []Entry) ([]Entry, error) {
	es := append([]Entry(nil), entries...)
	sort.Slice(es, func(i, j int) bool { return es[i].Range.Lo < es[j].Range.Lo })
	for i := range es {
		if !es[i].Range.Valid() {
			return nil, fmt.Errorf("rqrmi: entry %d has invalid range %v", i, es[i].Range)
		}
		if i > 0 && es[i-1].Range.Hi >= es[i].Range.Lo {
			return nil, fmt.Errorf("rqrmi: ranges %v and %v overlap", es[i-1].Range, es[i].Range)
		}
	}
	return es, nil
}
