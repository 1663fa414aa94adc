package rqrmi

import (
	"math"
	"sort"
)

// This file fits submodels directly instead of training them. A submodel
// with h hidden units, ReLU(u·w1+b1)·w2+b2, is a continuous piecewise-linear
// function of its input, and §3.5 / Appendix A need nothing more: the
// responsibilities and error bounds are computed from whatever function the
// weights encode. So rather than descending a gradient, fit solves the
// problem the error bound measures — the minimax index error over the keys
// the submodel is responsible for — over continuous piecewise-linear
// functions of at most h-1 kinks (h linear pieces), which h hidden units
// encode exactly.
//
// The target is the index staircase of the entries overlapping the
// responsibility. Within one overlap the index is constant, so a linear
// piece that puts both ends of the overlap within tolerance puts every key
// between them there too; keys outside every overlap are unconstrained,
// exactly as in leafMaxError. The fit therefore sees a sequence of gates —
// vertical segments [index-e, index+e+1) at the ends of each overlap — and
// looks for a polyline with at most h pieces through all of them. For a
// given tolerance e the polyline is grown greedily: each piece keeps the
// convex set of lines (value at its anchor, slope) that pass through every
// gate so far, clipped gate by gate. When the set empties, a knot goes at
// one of the last few gates the piece passed or at the last key before the
// gate after it (inside an overlap the knot itself must stay within
// tolerance), whichever lets the next piece reach furthest. A doubling
// search from the target error, then bisection over integer e, finds the
// smallest tolerance the greedy meets; the lines are then chosen back to
// front so consecutive pieces meet at their knot. The package comment
// records how this departs from the paper's Adam training.

// fitMargin keeps fitted values this far (in index units) inside each gate,
// absorbing the float32 rounding of the weights.
const fitMargin = 1.0 / 16

// maxWeight bounds, in output units, the summed magnitude of the hidden
// units' contributions anywhere in a submodel's responsibility. The
// analysis assumes the evaluated output is monotone within each linear
// piece, which float64 rounding respects only while the terms it sums stay
// small: a steep piece whose unit stays active across a long range cancels
// terms of magnitude slope × range, and their rounding noise can reorder
// adjacent keys near a bucket boundary. Slopes are capped to keep the sum
// below this bound. ClassBench fits stay under 32 without the cap; only
// tiny steps at the edge of a wide responsibility reach it.
const maxWeight = 256

// line is y(u) = v + s·(u - xa) for the anchor xa of the piece it belongs to.
type line struct{ v, s float64 }

// piece is one linear piece of a fit: its anchor (the knot it starts at, or
// the first gate for the first piece) and the convex polygon of lines, in
// (v, s) space, that pass through every gate the piece covers.
type piece struct {
	xa   float64
	poly []line
}

// staircase is the fitting input of one submodel: gate i sits at input u[i]
// (strictly increasing) with target index idx[i]; key[i] is the lattice key
// u[i] was computed from. same[i] reports that gates i and i+1 are the two
// ends of one overlap, so a knot between them must itself stay within
// tolerance.
type staircase struct {
	u, idx []float64
	key    []uint64
	same   []bool
	// inLo, inSpan are the submodel's input normalization.
	inLo, inSpan float64
	// maxSlope caps the slope of every piece, in indexes per unit of u.
	maxSlope float64
}

// toU maps a key to the submodel's normalized input exactly as evalX does.
func (st *staircase) toU(k uint64) float64 { return (float64(k)*scale - st.inLo) / st.inSpan }

// newStaircase collects the gates of the entries (los/his) overlapping resp
// for a submodel of h hidden units, and caps its slopes so that the units
// sum to at most maxWeight anywhere in resp.
func newStaircase(resp []kinterval, los, his []uint32, inLo, inSpan float64, h int) *staircase {
	n := len(los)
	st := &staircase{inLo: inLo, inSpan: inSpan, maxSlope: math.Inf(1)}
	if hl, ok := hull(resp); ok && hl.hi > hl.lo {
		// Each unit's weight is a slope change of at most twice the cap,
		// active over at most the hull.
		st.maxSlope = maxWeight * float64(n) / (2 * float64(h) * (st.toU(hl.hi) - st.toU(hl.lo)))
	}
	add := func(k uint64, j int, same bool) {
		st.u = append(st.u, st.toU(k))
		st.idx = append(st.idx, float64(j))
		st.key = append(st.key, k)
		st.same = append(st.same, same)
	}
	for _, iv := range resp {
		j := sort.Search(n, func(i int) bool { return uint64(los[i]) > iv.lo })
		if j > 0 {
			j--
		}
		for ; j < n && uint64(los[j]) <= iv.hi; j++ {
			lo, hi := max(uint64(los[j]), iv.lo), min(uint64(his[j]), iv.hi)
			if lo > hi {
				continue
			}
			if lo == hi {
				add(lo, j, false)
				continue
			}
			add(lo, j, true)
			add(hi, j, false)
		}
	}
	return st
}

// band returns gate i's tolerance interval for error e.
func (st *staircase) band(i int, e float64) (lo, hi float64) {
	return st.idx[i] - e + fitMargin, st.idx[i] + e + 1 - fitMargin
}

// clipHalf keeps the part of the convex polygon src where a·v + b·s ≤ c
// (Sutherland–Hodgman against one half-plane).
func clipHalf(dst, src []line, a, b, c float64) []line {
	dst = dst[:0]
	for i, p := range src {
		q := src[(i+1)%len(src)]
		fp := a*p.v + b*p.s - c
		fq := a*q.v + b*q.s - c
		if fp <= 0 {
			dst = append(dst, p)
		}
		if (fp < 0 && fq > 0) || (fp > 0 && fq < 0) {
			t := fp / (fp - fq)
			dst = append(dst, line{p.v + t*(q.v-p.v), p.s + t*(q.s-p.s)})
		}
	}
	return dst
}

// backtrack is how many of the last gates a piece passed its knot may move
// back to. Ending a piece a few gates early often lets the next one start
// with a much wider fan of lines; beyond four gates the gain is marginal.
const backtrack = 4

// fitter runs the greedy for one staircase, reusing its polygon buffers
// across the bisection. rings[r][j%backtrack] is a piece's polygon after
// gate j; the three rings hold the current piece, the candidate being tried
// and the best candidate so far.
type fitter struct {
	st                   *staircase
	tmp, alt             []line
	rings                [3][backtrack][]line
	cur, trial, bestRing int
}

// start places, in ring r, the polygon of a piece anchored at xa with its
// value there in [vlo, vhi], already clipped to its first gate i
// (u[i] > xa) and to the slope cap. Bounding the slope by that gate keeps
// every vertex a true constraint intersection. It reports false when the
// cap leaves no line.
func (f *fitter) start(r int, xa, vlo, vhi float64, i int, e float64) bool {
	lo, hi := f.st.band(i, e)
	d := f.st.u[i] - xa
	f.tmp = append(f.tmp[:0],
		line{vlo, (lo - vlo) / d}, line{vlo, (hi - vlo) / d},
		line{vhi, (hi - vhi) / d}, line{vhi, (lo - vhi) / d})
	f.alt = clipHalf(f.alt, f.tmp, 0, 1, f.st.maxSlope)
	slot := &f.rings[r][i%backtrack]
	*slot = clipHalf(*slot, f.alt, 0, -1, f.st.maxSlope)
	return len(*slot) > 0
}

// extend clips the piece in ring r (anchored at xa, last clipped to gate
// i-1) with gates i, i+1, ... and returns the first gate no line passes
// (len(u) when it passed all).
func (f *fitter) extend(r int, xa float64, i int, e float64) int {
	ring := &f.rings[r]
	for ; i < len(f.st.u); i++ {
		lo, hi := f.st.band(i, e)
		prev := ring[(i-1)%backtrack]
		// Most gates either hold every line of the piece or none; only the
		// rest need clipping.
		switch vlo, vhi := project(prev, xa, f.st.u[i]); {
		case vhi < lo || vlo > hi:
			return i
		case vlo >= lo && vhi <= hi:
			ring[i%backtrack] = append(ring[i%backtrack][:0], prev...)
			continue
		}
		d := f.st.u[i] - xa
		f.tmp = clipHalf(f.tmp, prev, 1, d, hi)
		f.alt = clipHalf(f.alt, f.tmp, -1, -d, -lo)
		if len(f.alt) == 0 {
			return i
		}
		ring[i%backtrack] = append(ring[i%backtrack][:0], f.alt...)
	}
	return i
}

// project returns the range of values the lines of poly take at u.
func project(poly []line, xa, u float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, p := range poly {
		y := p.v + p.s*(u-xa)
		lo, hi = min(lo, y), max(hi, y)
	}
	return lo, hi
}

// snap32 returns a float32-representable input in [lo, hi) nearest to u, or
// u itself when the interval holds none. Knots are stored as float32 biases,
// so a representable knot lands exactly where the fit placed it.
func snap32(u, lo, hi float64) float64 {
	for _, c := range []float32{float32(u), math.Nextafter32(float32(u), float32(math.Inf(-1))), math.Nextafter32(float32(u), float32(math.Inf(1)))} {
		if c64 := float64(c); c64 >= lo && c64 < hi {
			return c64
		}
	}
	return u
}

// run grows at most maxPieces pieces through every gate at tolerance e. It
// returns nil when the greedy needs more pieces.
func (f *fitter) run(e float64, maxPieces int) []piece {
	st := f.st
	n := len(st.u)
	lo, hi := st.band(0, e)
	if n == 1 {
		return []piece{{xa: st.u[0], poly: []line{{lo, 0}, {hi, 0}}}}
	}
	f.cur, f.trial, f.bestRing = 0, 1, 2
	xa, first := st.u[0], 1
	if !f.start(f.cur, xa, lo, hi, 1, e) {
		return nil
	}
	i := f.extend(f.cur, xa, 2, e)
	var ps []piece
	for i < n {
		if len(ps)+2 > maxPieces {
			return nil
		}
		// The piece fails at gate i. Try a knot at each of the last gates
		// j it passed, and at the last key before gate j+1, where its lines
		// fan out furthest; keep the one whose next piece reaches furthest.
		reach, knot, end := -1, 0.0, 0
		for j := i - 1; j >= first && j >= i-backtrack; j-- {
			poly := f.rings[f.cur][j%backtrack]
			gapEnd := snap32(st.toU(st.key[j+1]-1), st.u[j], st.u[j+1])
			for c, k := range [2]float64{st.u[j], gapEnd} {
				if c == 1 && k == st.u[j] {
					break // no key between gate j and the next one
				}
				vlo, vhi := project(poly, xa, k)
				if st.same[j] && k != st.u[j] {
					blo, bhi := st.band(j, e)
					vlo, vhi = max(vlo, blo), min(vhi, bhi)
				}
				if !(vlo <= vhi) {
					continue
				}
				if !f.start(f.trial, k, vlo, vhi, j+1, e) {
					continue
				}
				if r := f.extend(f.trial, k, j+2, e); r > reach {
					reach, knot, end = r, k, j
					f.trial, f.bestRing = f.bestRing, f.trial
				}
			}
		}
		if reach < 0 {
			return nil
		}
		ps = append(ps, piece{xa: xa, poly: append([]line(nil), f.rings[f.cur][end%backtrack]...)})
		f.cur, f.bestRing = f.bestRing, f.cur
		xa, first, i = knot, end+1, reach
	}
	return append(ps, piece{xa: xa, poly: append([]line(nil), f.rings[f.cur][(n-1)%backtrack]...)})
}

// through returns a line of poly (anchored at xa) that takes value y at u:
// the midpoint of the polygon's chord along that constraint, or — when
// rounding left the chord empty — the nearest vertex shifted onto it.
func through(poly []line, xa, u, y float64) line {
	d := u - xa
	var pts []line
	nearest, gap := poly[0], math.Inf(1)
	for i, p := range poly {
		q := poly[(i+1)%len(poly)]
		gp, gq := p.v+p.s*d-y, q.v+q.s*d-y
		if math.Abs(gp) < gap {
			nearest, gap = p, math.Abs(gp)
		}
		if gp == 0 {
			pts = append(pts, p)
		} else if (gp < 0 && gq > 0) || (gp > 0 && gq < 0) {
			t := gp / (gp - gq)
			pts = append(pts, line{p.v + t*(q.v-p.v), p.s + t*(q.s-p.s)})
		}
	}
	if len(pts) == 0 {
		return line{y - nearest.s*d, nearest.s}
	}
	a, b := pts[0], pts[len(pts)-1]
	l := line{(a.v + b.v) / 2, (a.s + b.s) / 2}
	l.v = y - l.s*d // pin the knot value exactly
	return l
}

// centroid returns the vertex average of a polygon.
func centroid(poly []line) line {
	var c line
	for _, p := range poly {
		c.v += p.v
		c.s += p.s
	}
	return line{c.v / float64(len(poly)), c.s / float64(len(poly))}
}

// fitStaircase returns the submodel of h hidden units, over n indexes, whose
// function has the smallest tolerance the greedy meets. The search starts
// at guess and doubles until a fit succeeds, then bisects.
func fitStaircase(st *staircase, h, n, guess int) submodel {
	f := &fitter{st: st}
	var best []piece
	try := func(e int) bool {
		if ps := f.run(float64(e), h); ps != nil {
			best = ps
			return true
		}
		return false
	}
	// A constant meets half the index range, so the doubling ends there.
	limit := int(math.Ceil((st.idx[len(st.idx)-1]-st.idx[0])/2)) + 1
	lo, hi := 0, max(guess, 1)
	for hi < limit && !try(hi) {
		lo, hi = hi+1, 2*hi
	}
	if best == nil {
		if hi = limit; !try(hi) {
			// Unreachable for a well-formed staircase: one piece meets
			// the tolerance a constant does. Keep the constant.
			c := (st.idx[0] + st.idx[len(st.idx)-1] + 1) / 2
			best = []piece{{xa: st.u[0], poly: []line{{c, 0}}}}
		}
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if try(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return st.weights(best, h, n)
}

// weights encodes a fit as h hidden units over n indexes. Unit 0 carries
// the first piece's slope from the first gate on; unit k ≥ 1 kinks at the
// start of piece k. Each unit's output weight is chosen, after rounding the ones
// before it to float32, so that the piece ends exactly on its line: rounding
// errors stay local to one piece instead of accumulating across knots.
func (st *staircase) weights(ps []piece, h, n int) submodel {
	sub := submodel{
		w1: make([]float64, h), b1: make([]float64, h), w2: make([]float64, h),
		inLo: st.inLo, inSpan: st.inSpan,
	}
	// Choose the lines back to front so each piece ends on the next one's
	// knot value.
	lines := make([]line, len(ps))
	lines[len(ps)-1] = centroid(ps[len(ps)-1].poly)
	for r := len(ps) - 2; r >= 0; r-- {
		next := ps[r+1]
		lines[r] = through(ps[r].poly, ps[r].xa, next.xa, lines[r+1].v)
	}
	out := 1 / float64(n)
	f32 := func(x float64) float64 { return float64(float32(x)) }
	eval := func(u float64) float64 {
		y := sub.b2
		for k := range sub.w1 {
			if z := u*sub.w1[k] + sub.b1[k]; z > 0 {
				y += sub.w2[k] * z
			}
		}
		return y
	}
	// Unit 0 kinks at (a float32 at or below) the first gate: left of it
	// the responsibility holds only gap keys, and the output stays flat.
	t0 := float32(st.u[0])
	if float64(t0) > st.u[0] {
		t0 = math.Nextafter32(t0, float32(math.Inf(-1)))
	}
	sub.w1[0], sub.b1[0] = 1, -float64(t0)
	sub.w2[0] = f32(lines[0].s * out)
	sub.b2 = f32((lines[0].v + lines[0].s*(float64(t0)-ps[0].xa)) * out)
	slope := sub.w2[0]
	for k := 1; k < len(ps); k++ {
		sub.w1[k], sub.b1[k] = 1, f32(-ps[k].xa)
		t := -sub.b1[k]
		end := st.u[len(st.u)-1]
		if k+1 < len(ps) {
			end = ps[k+1].xa
		}
		if end <= t {
			continue // rounding pushed the knot past the piece: drop the unit
		}
		want := (lines[k].v + lines[k].s*(end-ps[k].xa)) * out
		sub.w2[k] = f32((want-eval(t))/(end-t) - slope)
		slope += sub.w2[k]
	}
	return sub
}
