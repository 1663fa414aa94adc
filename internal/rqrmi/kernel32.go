package rqrmi

import "math"

// This file is the float32 inference path of §4: the paper evaluates
// submodels in single precision so that AVX processes 8 lanes per
// instruction. flatStages32 packs every submodel's parameters in float32,
// interleaved for broadcast-friendly streaming, and evalBlock dispatches
// between the hand-written AVX2 kernel (kernel_amd64.s) and the portable
// pure-Go form below.
//
// Numeric contract: the assembly kernel and evalBlockGo are BIT-IDENTICAL.
// Both compute, per lane,
//
//	u = (x - inLo) * invSpan            // sub, then mul (no division)
//	z = u*w + b; z = (z > 0) ? z : +0   // mul, add, max — never fused
//	y += v*z                            // mul, add — never fused
//	y = min(max(y, +0), clampHi32)
//
// with round-to-nearest float32 at every step. The Go form wraps each
// product in an explicit float32 conversion, which the language spec defines
// as a rounding barrier, so compilers that auto-fuse mul+add (arm64, ppc64)
// cannot change the result; the assembly uses separate VMULPS/VADDPS for the
// same reason. The max/min comparisons use the asymmetric IEEE select
// semantics of VMAXPS/VMINPS (second source wins on equal or NaN), matched
// in Go by `if !(y > 0) { y = 0 }` style negated comparisons — except that
// the Go hidden-unit loop skips inactive units outright, which is proven
// equivalent in evalBlockGo's comment.
//
// Because float32 arithmetic differs from the float64 arithmetic the error
// bounds were proven under, the float32 path re-validates the bounds at
// finalize time (revalidateF32) and — decisively — detects at lookup time
// when a prediction escaped its search window and falls back to the exact
// scalar path for that key (see lookupEntryBatchF32). Correctness therefore
// never rests on the float32 bounds; they are purely a performance
// parameter.

// scale32 maps a uint32 key into [0,1) in float32. The conversion
// float32(key) rounds the key to 24 significant bits first; the subsequent
// power-of-two scaling is exact.
const scale32 = float32(1.0 / (1 << 32))

// clampHi32 is the largest float32 below 1.0 (= 1 - 2^-24), the float32
// analogue of clampHi.
const clampHi32 = float32(1) - 1.0/(1<<24)

// flatStages32 packs every submodel's parameters in float32. The hidden
// coefficients of global submodel g are interleaved as (w1, b1, w2)
// triplets at tri[g*3h : (g+1)*3h] so the kernel's inner loop streams one
// cache-line sequence per submodel; the three per-submodel scalars live at
// hdr[3g : 3g+3] = {inLo, invSpan, b2}.
//
//nm:immutable
type flatStages32 struct {
	h   int
	off []int32 // off[s] is the global index of stage s's first submodel
	tri []float32
	hdr []float32
}

// flatten32 packs the staged submodels into the float32 parameter form,
// stage after stage. It returns nil when the model has no stages, when the
// hidden width is not uniform, when any parameter is non-finite in float32,
// or when a submodel's input span collapses under float32 or its reciprocal
// overflows (all possible only for hand-crafted or corrupted serialized
// models), in which case batched lookups resolve each key with LookupEntry.
// The finiteness requirement lets evalBlockGo skip inactive hidden units
// (see the note there) while staying bit-identical to the assembly.
//
//nm:builder flatStages32
func flatten32(stages [][]submodel) *flatStages32 {
	if len(stages) == 0 || len(stages[0]) == 0 {
		return nil
	}
	h := len(stages[0][0].w1)
	total := 0
	f32 := &flatStages32{h: h, off: make([]int32, len(stages))}
	for s, st := range stages {
		f32.off[s] = int32(total)
		total += len(st)
	}
	f32.tri = make([]float32, 0, total*3*h)
	f32.hdr = make([]float32, 0, total*3)
	finite := func(v float32) bool { return !math.IsInf(float64(v), 0) && v == v }
	for _, st := range stages {
		for i := range st {
			sm := &st[i]
			if len(sm.w1) != h {
				return nil
			}
			for k := 0; k < h; k++ {
				w, b, v := float32(sm.w1[k]), float32(sm.b1[k]), float32(sm.w2[k])
				if !finite(w) || !finite(b) || !finite(v) {
					return nil
				}
				f32.tri = append(f32.tri, w, b, v)
			}
			span := float32(sm.inSpan)
			if !(span > 0) {
				return nil
			}
			inv := 1 / span
			lo, b2 := float32(sm.inLo), float32(sm.b2)
			if !finite(inv) || !finite(lo) || !finite(b2) {
				return nil
			}
			f32.hdr = append(f32.hdr, lo, inv, b2)
		}
	}
	return f32
}

// evalBlock evaluates submodel g over x into y (len(y) >= len(x)) with the
// active kernel: the AVX2 assembly when asm is true (multiples of 8 lanes;
// the tail runs through the bit-identical Go form), the pure-Go form
// otherwise.
//
//nm:hotpath
func (f *flatStages32) evalBlock(g int, x, y []float32, asm bool) {
	if asm && f.h > 0 {
		nw := len(x) &^ 7
		if nw > 0 {
			evalBlockAVX2(&f.tri[g*3*f.h], int64(f.h), &f.hdr[3*g], &x[0], &y[0], int64(nw))
		}
		r := len(x) - nw
		if r == 0 {
			return
		}
		// A big-enough tail is cheaper as one more 8-wide block overlapping
		// the last vector's lanes than as r scalar passes: the overlapped
		// lanes recompute the same parameters on the same inputs, so they
		// rewrite y with bit-identical values. Needs len(x) >= 8 so the
		// window stays inside this group's slice.
		if r >= 3 && nw > 0 {
			t := len(x) - 8
			evalBlockAVX2(&f.tri[g*3*f.h], int64(f.h), &f.hdr[3*g], &x[t], &y[t], 8)
			return
		}
		x, y = x[nw:], y[nw:]
	}
	f.evalBlockGo(g, x, y)
}

// evalBlockGo is the portable kernel: four keys per pass in named locals
// (Go's register allocator scalarizes named variables but not arrays — the
// Table 1 lesson), every operation mirroring one vector instruction of the
// assembly kernel — modulo the inactive-unit skip argued below — so results
// are bit-identical lane for lane.
//
//nm:hotpath
func (f *flatStages32) evalBlockGo(g int, x, y []float32) {
	h := f.h
	tri := f.tri[g*3*h : g*3*h+3*h]
	inLo, invSp, b2 := f.hdr[3*g], f.hdr[3*g+1], f.hdr[3*g+2]
	// Inactive hidden units (z <= 0 or z NaN) are skipped instead of
	// accumulating the assembly's v*ReLU(z) = v*(+0) = ±0 term. With every
	// parameter finite (flatten32 guarantees it), the two accumulator
	// evolutions can differ only while both sit in {+0, -0} — adding ±0 to
	// any non-zero, Inf, or NaN value is the identity, and the first such
	// term moves both accumulators to the same value. A sum that ends in
	// the ±0 state is mapped to +0 by the final max(y, +0) clamp either
	// way, so the stored outputs stay bit-identical while the skip saves a
	// dependent multiply-add per inactive unit.
	c := 0
	for ; c+4 <= len(x); c += 4 {
		u0 := (x[c] - inLo) * invSp
		u1 := (x[c+1] - inLo) * invSp
		u2 := (x[c+2] - inLo) * invSp
		u3 := (x[c+3] - inLo) * invSp
		y0, y1, y2, y3 := b2, b2, b2, b2
		for k := 0; k+3 <= len(tri); k += 3 {
			w, b, v := tri[k], tri[k+1], tri[k+2]
			if z0 := float32(u0*w) + b; z0 > 0 {
				y0 += float32(v * z0)
			}
			if z1 := float32(u1*w) + b; z1 > 0 {
				y1 += float32(v * z1)
			}
			if z2 := float32(u2*w) + b; z2 > 0 {
				y2 += float32(v * z2)
			}
			if z3 := float32(u3*w) + b; z3 > 0 {
				y3 += float32(v * z3)
			}
		}
		y[c] = clamp01f32(y0)
		y[c+1] = clamp01f32(y1)
		y[c+2] = clamp01f32(y2)
		y[c+3] = clamp01f32(y3)
	}
	for ; c < len(x); c++ {
		u := (x[c] - inLo) * invSp
		yy := b2
		for k := 0; k+3 <= len(tri); k += 3 {
			if z := float32(u*tri[k]) + tri[k+1]; z > 0 {
				yy += float32(tri[k+2] * z)
			}
		}
		y[c] = clamp01f32(yy)
	}
}

// clamp01f32 matches the assembly's VMAXPS(·, +0) then VMINPS(·, clampHi32)
// exactly, including the ±0 and NaN select direction (second source wins).
//
//nm:hotpath
func clamp01f32(y float32) float32 {
	if !(y > 0) {
		y = 0
	}
	if !(y < clampHi32) {
		y = clampHi32
	}
	return y
}

// quantize32 mirrors quantize under float32 products.
//
//nm:hotpath
func quantize32(y, fw float32, outW int32) int32 {
	b := int32(y * fw)
	if b < 0 {
		b = 0
	} else if b >= outW {
		b = outW - 1
	}
	return b
}

// route evaluates the full staged pipeline for one key under float32
// arithmetic (scalar lanes of the batch kernel are bit-identical to vector
// lanes, so this reproduces exactly what lookupEntryBatchF32 computes).
// Used by the finalize-time bound re-validation.
func (f *flatStages32) route(key uint32, widths []int, nEntries int) (leaf, pred int32) {
	var xa, ya [1]float32
	xa[0] = float32(key) * scale32
	j := int32(0)
	last := len(widths) - 1
	for s := 0; s <= last; s++ {
		outW := nEntries
		if s < last {
			outW = widths[s+1]
		}
		f.evalBlockGo(int(f.off[s]+j), xa[:], ya[:])
		q := quantize32(ya[0], float32(outW), int32(outW))
		if s == last {
			return j, q
		}
		j = q
	}
	return 0, 0
}

// HasAsmKernel reports whether the AVX2 assembly kernel can run on this
// build and host.
func HasAsmKernel() bool { return asmKernelAvailable }

// KernelName identifies the batched-inference kernel the build and CPU
// selected, for bench artifacts: "avx2" or "go-f32".
func KernelName() string {
	if asmKernelAvailable {
		return "avx2"
	}
	return "go-f32"
}
