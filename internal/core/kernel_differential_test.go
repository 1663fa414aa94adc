package core

import (
	"math/rand"
	"testing"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/rqrmi"
	"nuevomatch/internal/rules"
)

// TestKernelDifferential builds one engine per ClassBench application
// profile and replays the same trace through the batched lookup path,
// asserting that the inference kernel the build and CPU selected — the AVX2
// assembly on amd64 hosts with AVX2, the portable pure-Go float32 form on
// every other host and under the noasm tag — reproduces the scalar path's
// verdict packet for packet. The kernels are designed bit-identical
// (kernel32.go), so any disagreement here is a kernel bug, not a tolerance
// issue. Under -short the sweep keeps one profile per application family.
func TestKernelDifferential(t *testing.T) {
	profiles := classbench.Profiles()
	size, probes := 300, 400
	if testing.Short() {
		profiles = []classbench.Profile{profiles[0], profiles[5], profiles[10]}
		size, probes = 150, 200
	}
	kernel := rqrmi.KernelName()
	t.Logf("kernel under test: %s", kernel)
	for pi, prof := range profiles {
		t.Run(prof.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7000 + int64(pi)))
			rs := classbench.Generate(prof, size)
			e, err := Build(rs, fastOpts())
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			// Half targeted at random rules, half uniform: cover both the
			// matched and miss paths of every kernel.
			pkts := make([]rules.Packet, probes)
			for i := range pkts {
				if i%2 == 0 {
					r := &rs.Rules[rng.Intn(len(rs.Rules))]
					pkts[i] = classbench.MatchingPacket(rng, r)
				} else {
					p := make(rules.Packet, rs.NumFields)
					for d := range p {
						p[d] = rng.Uint32()
					}
					pkts[i] = p
				}
			}
			want := make([]int, probes)
			for i, p := range pkts {
				want[i] = e.Lookup(p)
			}
			out := make([]int, probes)
			e.LookupBatch(pkts, out)
			for i := range out {
				if out[i] != want[i] {
					t.Fatalf("kernel %q: batch lookup %d = %d, scalar = %d (packet %v)",
						kernel, i, out[i], want[i], pkts[i])
				}
			}
		})
	}
}
