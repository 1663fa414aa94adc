package rqrmi

import "math/rand"

// This file provides the standalone inference kernel behind the Table 1
// reproduction. The paper accelerates submodel inference with SIMD (SSE
// processes 4 floats per instruction, AVX 8). Table 1 here times the
// kernels that serve lookups, on one submodel with the paper's 8 hidden
// units: Eval1 is the float64 scalar reference (the "Serial" row), and
// Eval8F32 runs the float32 batch kernel of §4 either in its pure-Go form,
// which evaluates 4 lanes per pass in named locals, or as the AVX2
// assembly, 8 lanes per instruction. Go has no vector intrinsics, so the
// assembly row is the only true SIMD row; hosts without AVX2 have none.

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

// Eval8F32 evaluates eight keys through the single-precision batch kernel
// that serves LookupEntryBatch: the AVX2 assembly (one 8-lane pass) when
// useAsm is set and the build and host support it, the bit-identical pure-Go
// form (two 4-lane passes) otherwise. The AVX2 row is the one closest to the
// paper's AVX measurement.
func (k *Kernel) Eval8F32(keys *[8]uint32, out *[8]float32, useAsm bool) {
	var x [8]float32
	for i := range keys {
		x[i] = float32(keys[i]) * scale32
	}
	k.f32.evalBlock(0, x[:], out[:], useAsm && asmKernelAvailable)
}
