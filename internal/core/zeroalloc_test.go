package core

import (
	"math/rand"
	"testing"

	"nuevomatch/internal/classifiers/conformance"
	"nuevomatch/internal/classifiers/cutsplit"
	"nuevomatch/internal/classifiers/neurocuts"
	"nuevomatch/internal/rules"
)

// TestLookupPathsZeroAlloc is the enforcement of the frozen-remainder
// design goal: after warm-up, no lookup path (scalar, batched, or the
// no-early-termination ablation) allocates — the whole pipeline (iSet inference, validation, frozen
// remainder, overlay scan) runs on snapshot-owned flat arrays and stack
// scratch. The guard runs once per remainder backend (each serving as the
// engine's remainder), so every backend's frozen lookup paths are held to
// the same zero-alloc contract as TupleMerge's. The update backends are
// churned first so the overlay path (additions, deletion skip list, and a
// compaction) is exercised, not just the freshly built state; the static
// decision-tree backends take no updates and run as built. CI runs this
// without -race as the benchmark smoke's alloc guard.
func TestLookupPathsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are only guaranteed without race instrumentation")
	}
	for _, backend := range updateBackends {
		t.Run(backend, func(t *testing.T) {
			opts := fastOpts()
			opts.Remainder = registeredRemainder(t, backend)
			lookupPathsZeroAlloc(t, opts, true)
		})
	}
	for _, static := range []struct {
		name  string
		build rules.Builder
	}{{"cutsplit", cutsplit.Build}, {"neurocuts", neurocuts.Build}} {
		t.Run(static.name, func(t *testing.T) {
			opts := fastOpts()
			opts.Remainder = static.build
			lookupPathsZeroAlloc(t, opts, false)
		})
	}
}

func lookupPathsZeroAlloc(t *testing.T, opts Options, drift bool) {
	rng := rand.New(rand.NewSource(91))
	rs := structuredRuleSet(rng, 400)
	e, err := Build(rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Drift the engine: deletions land on the skip list, insertions in the
	// overlay, and enough of both to trip one compaction.
	for i := 0; drift && i < 30; i++ {
		if err := e.Delete(rs.Rules[i*2].ID); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; drift && i < 50; i++ {
		f := make([]rules.Range, 5)
		for d := range f {
			lo := rng.Uint32() >> 1
			f[d] = rules.Range{Lo: lo, Hi: lo + rng.Uint32()>>10}
		}
		if err := e.Insert(rules.Rule{ID: 30000 + i, Priority: int32(rng.Intn(500)), Fields: f}); err != nil {
			t.Fatal(err)
		}
	}

	pkts := make([]rules.Packet, 256)
	for i := range pkts {
		pkts[i] = conformance.RandomPacket(rng, rs)
	}

	var i int
	if avg := testing.AllocsPerRun(200, func() {
		e.Lookup(pkts[i%len(pkts)])
		i++
	}); avg != 0 {
		t.Errorf("Lookup allocates %.2f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		e.LookupNoEarlyTermination(pkts[i%len(pkts)])
		i++
	}); avg != 0 {
		t.Errorf("LookupNoEarlyTermination allocates %.2f objects per call, want 0", avg)
	}

	out := make([]int, 128)
	var j int
	if avg := testing.AllocsPerRun(100, func() {
		off := (j % 2) * 128 // alternate between both halves of the trace
		e.LookupBatch(pkts[off:off+128], out)
		j++
	}); avg != 0 {
		t.Errorf("LookupBatch allocates %.2f objects per call, want 0", avg)
	}
}
