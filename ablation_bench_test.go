package nuevomatch_test

// Ablation benchmarks for three design choices of the lookup path (this
// list is their only record):
//
//   - early termination (§4): remainder queried under the iSets' best
//     priority vs unconditionally;
//   - RQ-RMI inference + bounded search vs a plain binary search over the
//     same sorted range array (what a non-learned index would do);
//   - LookupBatch from parallel readers vs single-core sequential lookup.

import (
	"math/rand"
	"sort"
	"testing"

	"nuevomatch/internal/analysis"
	"nuevomatch/internal/rules"
)

func BenchmarkAblationEarlyTermination(b *testing.B) {
	f := getFixture(b)
	e := f.nm[analysis.TM]
	b.Run("with", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.Lookup(f.pkts[i%len(f.pkts)])
		}
	})
	b.Run("without", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.LookupNoEarlyTermination(f.pkts[i%len(f.pkts)])
		}
	})
}

func BenchmarkAblationModelVsBinarySearch(b *testing.B) {
	f := getFixture(b)
	m := f.model
	entries := f.entries
	los := make([]uint32, len(entries))
	his := make([]uint32, len(entries))
	for i, e := range entries {
		los[i], his[i] = e.Range.Lo, e.Range.Hi
	}
	rng := rand.New(rand.NewSource(9))
	keys := make([]uint32, 4096)
	for i := range keys {
		// Bias half the probes into ranges so both paths do real work.
		if i%2 == 0 {
			e := entries[rng.Intn(len(entries))]
			keys[i] = e.Range.Lo + uint32(rng.Uint64()%e.Range.Size())
		} else {
			keys[i] = rng.Uint32()
		}
	}
	b.Run("rqrmi", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if _, ok := m.Lookup(keys[i&4095]); ok {
				hits++
			}
		}
		_ = hits
	})
	b.Run("binarysearch", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			k := keys[i&4095]
			j := sort.Search(len(los), func(x int) bool { return los[x] > k })
			if j > 0 && k <= his[j-1] {
				hits++
			}
		}
		_ = hits
	})
}

func BenchmarkAblationParallelVsSequential(b *testing.B) {
	f := getFixture(b)
	e := f.nm[analysis.TM]
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.Lookup(f.pkts[i%len(f.pkts)])
		}
	})
	b.Run("batch2core", func(b *testing.B) { benchBatchReaders(b, e, f.pkts) })
}

func BenchmarkAblationRemainderChoice(b *testing.B) {
	// The same engine workload with each remainder classifier family.
	f := getFixture(b)
	for _, name := range analysis.Baselines() {
		e := f.nm[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Lookup(f.pkts[i%len(f.pkts)])
			}
		})
	}
}

func BenchmarkDecodeFiveTuple(b *testing.B) {
	pkt := rules.EncodeFiveTuple(rules.FiveTuple{
		SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 1234, DstPort: 443, Proto: 6,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rules.DecodeFiveTuple(pkt); err != nil {
			b.Fatal(err)
		}
	}
}
