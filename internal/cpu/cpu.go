// Package cpu detects the SIMD capabilities of the host processor and
// provides the software-prefetch primitive used by the batched lookup path.
//
// The paper's inference kernels are AVX float32 code (§4: eight lanes per
// instruction); this package decides at startup whether the hand-written
// AVX2 kernel in internal/rqrmi may run. Detection is a direct CPUID/XGETBV
// probe (no external dependencies): AVX2 requires the CPUID feature bit AND
// OS support for saving the YMM state (OSXSAVE + XCR0 bits 1-2), exactly the
// check the Go runtime itself performs.
//
// Building with the `noasm` tag (or on any non-amd64 GOARCH) compiles the
// pure-Go fallbacks only: every feature reports false and Prefetch is a
// no-op, which is also how the portable kernel path is forced in tests.
package cpu

// X86 reports the detected processor features. On non-amd64 builds, and
// under the noasm build tag, every field is false.
var X86 struct {
	// HasAVX2 is true when the 8-wide float32 kernel may run: the CPU
	// supports AVX2 and the OS saves the YMM register state.
	HasAVX2 bool
	// HasAVX is true when 256-bit vector state is usable (implied by AVX2).
	HasAVX bool
	// HasFMA reports fused multiply-add support. The kernels deliberately
	// do NOT use FMA (separate mul/add keeps the assembly bit-identical to
	// the pure-Go fallback); the bit is recorded for bench artifacts.
	HasFMA bool
	// HasSSE42 is part of the amd64 baseline but recorded explicitly so
	// artifacts from exotic environments are self-describing.
	HasSSE42 bool
}

// Features returns the detected SIMD feature names in a stable order, for
// the machine shape that nmbench run records and benchrunner's batch gate
// report. Empty on noasm/non-amd64 builds.
func Features() []string {
	var fs []string
	if X86.HasSSE42 {
		fs = append(fs, "sse4.2")
	}
	if X86.HasAVX {
		fs = append(fs, "avx")
	}
	if X86.HasAVX2 {
		fs = append(fs, "avx2")
	}
	if X86.HasFMA {
		fs = append(fs, "fma")
	}
	return fs
}
