package rqrmi

import (
	"slices"
	"sort"
)

// This file implements the analytic machinery of §3.5 and Appendix A —
// trigger inputs, transition inputs, responsibility propagation
// (Theorem A.1) and worst-case leaf error (Theorem A.13) — grounded on the
// integer key lattice (see the package comment for why).
//
// Within a linear piece of the network, the clamped output M is weakly
// monotone, so the quantized bucket function k ↦ ⌊M(k·2^-32)·w⌋ is a
// monotone step function of the key. Each transition input is therefore
// located exactly by binary search over the keys of the piece, using the
// same evaluation the model performs at lookup time. ReLU kinks, whose
// float64 positions may be off by ulps from the real roots, are handled by
// isolating the (at most one) lattice key adjacent to each kink into its own
// singleton segment, which is evaluated directly rather than assumed linear.

// kinterval is a closed interval [lo, hi] of keys. lo == hi is a singleton.
type kinterval struct {
	lo, hi uint64
}

func (iv kinterval) count() uint64 { return iv.hi - iv.lo + 1 }

// kinkKeys returns, for each ReLU kink of the submodel that falls inside
// (x(lo), x(hi)), the lattice keys flanking the kink (clipped to [lo, hi]).
// Using both flanking keys as partition points isolates the at-most-one
// ambiguous key per kink into a singleton segment, which partition evaluates
// directly, so every multi-key piece is strictly linear over its keys.
func (s *submodel) kinkKeys(lo, hi uint64) []uint64 {
	out := make([]uint64, 0, 2*len(s.w1))
	xlo, xhi := float64(lo)*scale, float64(hi)*scale
	for k, w := range s.w1 {
		if w == 0 {
			continue
		}
		// Hidden unit k flips where w·u + b1 = 0 with u = (x-inLo)/inSpan.
		u := -s.b1[k] / w
		x := s.inLo + u*s.inSpan
		if x <= xlo || x >= xhi {
			continue
		}
		kk := uint64(x / scale)
		if kk >= lo && kk <= hi {
			out = append(out, kk)
		}
		if kk+1 >= lo && kk+1 <= hi {
			out = append(out, kk+1)
		}
	}
	return out
}

// partition returns the sorted, unique segment-start keys that split
// [lo, hi] into maximal runs of keys sharing the same bucket value under
// quantization width w. The first element is always lo. Segment i spans
// [starts[i], starts[i+1]-1] (the last spans through hi) and every key in a
// segment has the bucket value of its start key.
func (s *submodel) partition(lo, hi uint64, w int) []uint64 {
	starts := []uint64{lo}
	if lo == hi {
		return starts
	}
	// Piece boundaries: kink-adjacent keys, each opening a new segment so
	// that the possibly-nonlinear key is isolated and directly evaluated.
	pieces := append(s.kinkKeys(lo, hi), lo, hi)
	sort.Slice(pieces, func(i, j int) bool { return pieces[i] < pieces[j] })
	pieces = dedupKeys(pieces)

	for pi := 0; pi+1 < len(pieces); pi++ {
		a, b := pieces[pi], pieces[pi+1]
		if a != lo {
			starts = append(starts, a)
		}
		// Within [a, b] the bucket is monotone; walk the flips.
		ba := s.bucket(a, w)
		for s.bucket(b, w) != ba {
			// Binary search the first key in (a, b] whose bucket differs
			// from ba; monotonicity of the step function makes the
			// predicate monotone.
			flo, fhi := a+1, b
			for flo < fhi {
				mid := flo + (fhi-flo)/2
				if s.bucket(mid, w) != ba {
					fhi = mid
				} else {
					flo = mid + 1
				}
			}
			starts = append(starts, flo)
			a = flo
			ba = s.bucket(a, w)
		}
	}
	return dedupKeys(starts)
}

func dedupKeys(ks []uint64) []uint64 {
	if len(ks) == 0 {
		return ks
	}
	out := ks[:1]
	for _, k := range ks[1:] {
		if k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	return out
}

// respSet accumulates the responsibility intervals (Definition A.3) of the
// next stage's submodels while the current stage is analyzed.
type respSet struct {
	ivs [][]kinterval
}

func newRespSet(width int) *respSet {
	return &respSet{ivs: make([][]kinterval, width)}
}

// add registers [lo, hi] as part of submodel b's responsibility, keeping
// the bucket's intervals sorted and merging contiguous ones. One parent's
// propagate sweeps its keys left to right, but a bucket collects from every
// parent of the stage in turn, and a parent whose output falls as keys rise
// hands a later parent the lower keys: the interval then lands before the
// bucket's last one, not after it.
func (r *respSet) add(b int, lo, hi uint64) {
	s := r.ivs[b]
	i := sort.Search(len(s), func(i int) bool { return s[i].hi+1 >= lo })
	j := i
	for j < len(s) && s[j].lo <= hi+1 {
		j++
	}
	if i < j {
		lo, hi = min(lo, s[i].lo), max(hi, s[j-1].hi)
	}
	r.ivs[b] = slices.Replace(s, i, j, kinterval{lo, hi})
}

// propagate computes the next stage's responsibilities from a trained
// submodel and its own responsibility (Theorem A.1): partition yields
// maximal constant-bucket segments, each routed whole.
func (s *submodel) propagate(resp []kinterval, nextWidth int, into *respSet) {
	for _, iv := range resp {
		starts := s.partition(iv.lo, iv.hi, nextWidth)
		for i, start := range starts {
			end := iv.hi
			if i+1 < len(starts) {
				end = starts[i+1] - 1
			}
			into.add(s.bucket(start, nextWidth), start, end)
		}
	}
}

// totalKeys returns the number of keys covered by a responsibility.
func totalKeys(resp []kinterval) uint64 {
	var t uint64
	for _, iv := range resp {
		t += iv.count()
	}
	return t
}

// hull returns the smallest interval covering the responsibility; ok is
// false for an empty responsibility.
func hull(resp []kinterval) (kinterval, bool) {
	if len(resp) == 0 {
		return kinterval{}, false
	}
	return kinterval{resp[0].lo, resp[len(resp)-1].hi}, true
}

// leafMaxError computes the exact worst-case index prediction error of a
// trained leaf submodel over every key of its responsibility that is covered
// by an entry (Theorem A.13). los/his are the sorted inclusive boundaries of
// the model's entries. Keys in gaps impose no constraint — a miss there is
// caught by validation (§3.6) — so only the responsibility ∩ entry overlaps
// are partitioned, keeping the cost proportional to the entries touched plus
// the prediction flips inside them.
func (s *submodel) leafMaxError(resp []kinterval, los, his []uint32) int32 {
	n := len(los)
	if n == 0 {
		return 0
	}
	var worst int32
	probe := func(key uint64, ti int) {
		pred := s.bucket(key, n)
		d := int32(pred - ti)
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}

	for _, iv := range resp {
		// First entry that can overlap iv: the last with Lo <= iv.lo, or
		// the first overall.
		j := sort.Search(n, func(i int) bool { return uint64(los[i]) > iv.lo })
		if j > 0 {
			j--
		}
		for ; j < n && uint64(los[j]) <= iv.hi; j++ {
			olo, ohi := uint64(los[j]), uint64(his[j])
			if olo < iv.lo {
				olo = iv.lo
			}
			if ohi > iv.hi {
				ohi = iv.hi
			}
			if olo > ohi {
				continue
			}
			// Within the overlap the true index is constantly j; the
			// prediction is constant per partition segment, so probing
			// the segment starts bounds every key of the overlap.
			for _, k := range s.partition(olo, ohi, n) {
				probe(k, j)
			}
		}
	}
	return worst
}
