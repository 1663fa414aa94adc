//go:build !amd64 || noasm

package rqrmi

// asmKernelAvailable is false on portable builds: evalBlock always takes
// the pure-Go kernel.
const asmKernelAvailable = false

// evalBlockAVX2 is unreachable on portable builds (evalBlock only calls it
// when asked for the assembly kernel, which callers do only when
// asmKernelAvailable holds).
//
//nm:hotpath
func evalBlockAVX2(tri *float32, h int64, hdr *float32, x *float32, y *float32, n int64) {
	panic("rqrmi: assembly kernel invoked on a build without it")
}
