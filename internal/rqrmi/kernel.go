package rqrmi

import "math/rand"

// This file provides the standalone inference micro-kernels behind the
// Table 1 reproduction. The paper accelerates submodel inference with SIMD
// (SSE processes 4 floats per instruction, AVX 8). Go has no vector
// intrinsics, so the experiment is reproduced with batched kernels that
// evaluate 4 or 8 keys per pass with the per-unit coefficients hoisted out
// of the inner loop — exposing the same data parallelism to the CPU's
// out-of-order core and amortizing loop overhead, which is the effect the
// table demonstrates (see DESIGN.md, substitutions).

// Kernel is one submodel evaluated outside a model, for benchmarking.
type Kernel struct {
	s   submodel
	f32 *flatStages32 // single-submodel float32 form for the SIMD rows
}

// NewKernel returns a kernel with randomized weights and h hidden units
// (the paper uses 8).
func NewKernel(h int, seed int64) *Kernel {
	rng := rand.New(rand.NewSource(seed))
	s := submodel{
		w1:     make([]float64, h),
		b1:     make([]float64, h),
		w2:     make([]float64, h),
		b2:     rng.NormFloat64(),
		inLo:   0,
		inSpan: 1,
	}
	for k := 0; k < h; k++ {
		s.w1[k] = rng.NormFloat64()
		s.b1[k] = rng.NormFloat64()
		s.w2[k] = rng.NormFloat64()
	}
	return &Kernel{s: s, f32: flatten32([][]submodel{{s}})}
}

// Eval1 evaluates one key (the "Serial(1)" row of Table 1).
func (k *Kernel) Eval1(key uint32) float64 {
	return k.s.evalX(float64(key) * scale)
}

// Eval4 evaluates four keys per pass (the "SSE(4)" analogue).
func (k *Kernel) Eval4(keys *[4]uint32, out *[4]float64) {
	var x0, x1, x2, x3 float64
	x0 = float64(keys[0]) * scale
	x1 = float64(keys[1]) * scale
	x2 = float64(keys[2]) * scale
	x3 = float64(keys[3]) * scale
	s := &k.s
	y0, y1, y2, y3 := s.b2, s.b2, s.b2, s.b2
	for u, w := range s.w1 {
		b := s.b1[u]
		v := s.w2[u]
		if z := x0*w + b; z > 0 {
			y0 += v * z
		}
		if z := x1*w + b; z > 0 {
			y1 += v * z
		}
		if z := x2*w + b; z > 0 {
			y2 += v * z
		}
		if z := x3*w + b; z > 0 {
			y3 += v * z
		}
	}
	out[0] = clamp01(y0)
	out[1] = clamp01(y1)
	out[2] = clamp01(y2)
	out[3] = clamp01(y3)
}

// Eval8 evaluates eight keys per pass (the "AVX(8)" analogue). Like Eval4,
// the lanes live in named locals: Go's register allocator scalarizes named
// variables but keeps arrays on the stack, so an array-based formulation
// spills every lane to memory on each hidden unit and forfeits the batching
// win the row is meant to measure.
func (k *Kernel) Eval8(keys *[8]uint32, out *[8]float64) {
	x0 := float64(keys[0]) * scale
	x1 := float64(keys[1]) * scale
	x2 := float64(keys[2]) * scale
	x3 := float64(keys[3]) * scale
	x4 := float64(keys[4]) * scale
	x5 := float64(keys[5]) * scale
	x6 := float64(keys[6]) * scale
	x7 := float64(keys[7]) * scale
	s := &k.s
	y0, y1, y2, y3 := s.b2, s.b2, s.b2, s.b2
	y4, y5, y6, y7 := s.b2, s.b2, s.b2, s.b2
	for u, w := range s.w1 {
		b := s.b1[u]
		v := s.w2[u]
		if z := x0*w + b; z > 0 {
			y0 += v * z
		}
		if z := x1*w + b; z > 0 {
			y1 += v * z
		}
		if z := x2*w + b; z > 0 {
			y2 += v * z
		}
		if z := x3*w + b; z > 0 {
			y3 += v * z
		}
		if z := x4*w + b; z > 0 {
			y4 += v * z
		}
		if z := x5*w + b; z > 0 {
			y5 += v * z
		}
		if z := x6*w + b; z > 0 {
			y6 += v * z
		}
		if z := x7*w + b; z > 0 {
			y7 += v * z
		}
	}
	out[0] = clamp01(y0)
	out[1] = clamp01(y1)
	out[2] = clamp01(y2)
	out[3] = clamp01(y3)
	out[4] = clamp01(y4)
	out[5] = clamp01(y5)
	out[6] = clamp01(y6)
	out[7] = clamp01(y7)
}

// Eval8F32 evaluates eight keys per pass through the single-precision
// kernel: the AVX2 assembly when useAsm is set and the build/host support
// it, the bit-identical pure-Go float32 form otherwise. This is the row
// closest to the paper's AVX measurement — true 8-lane SIMD over float32.
func (k *Kernel) Eval8F32(keys *[8]uint32, out *[8]float32, useAsm bool) {
	var x [8]float32
	for i := range keys {
		x[i] = float32(keys[i]) * scale32
	}
	k.f32.evalBlock(0, x[:], out[:], useAsm && asmKernelAvailable)
}

//
//nm:hotpath
func clamp01(y float64) float64 {
	if y < 0 {
		return 0
	}
	if y >= 1 {
		return clampHi
	}
	return y
}
