package rqrmi

import (
	"math/rand"
	"sort"
	"testing"

	"nuevomatch/internal/rules"
)

// oracleKeys is the 16-bit key domain the exhaustive oracle covers.
const oracleKeys = 1 << 16

// oracleEntries draws a sorted, non-overlapping entry set in [0, 65535] of
// one of three shapes, chosen by kind: uniform single-key points, points
// clustered around a few centres, or disjoint ranges of mixed widths. Value
// i is the entry's position in key order.
func oracleEntries(rng *rand.Rand, kind, n int) []Entry {
	var starts []int
	switch kind {
	case 0, 2: // uniform points; starts of the mixed-width ranges
		starts = rng.Perm(oracleKeys)[:n]
	case 1: // clustered points
		centres := make([]float64, 1+rng.Intn(8))
		spreads := make([]float64, len(centres))
		for c := range centres {
			centres[c] = rng.Float64() * oracleKeys
			spreads[c] = 16 + rng.Float64()*4096
		}
		seen := make(map[int]bool, n)
		for len(starts) < n {
			c := rng.Intn(len(centres))
			k := int(centres[c] + rng.NormFloat64()*spreads[c])
			if k < 0 || k >= oracleKeys || seen[k] {
				continue
			}
			seen[k] = true
			starts = append(starts, k)
		}
	}
	sort.Ints(starts)
	entries := make([]Entry, n)
	for i, lo := range starts {
		hi := lo
		if kind == 2 {
			// Mixed widths: a third stay points, a third are short, a third
			// are long; each stops short of the next start, or touches it.
			switch rng.Intn(3) {
			case 1:
				hi += rng.Intn(16)
			case 2:
				hi += rng.Intn(4096)
			}
			next := oracleKeys
			if i+1 < n {
				next = starts[i+1]
			}
			hi = min(hi, next-1)
		}
		entries[i] = Entry{Range: rules.Range{Lo: uint32(lo), Hi: uint32(hi)}, Value: i}
	}
	return entries
}

// TestExhaustive16BitOracle trains models on random entry sets in the
// 16-bit key domain with the default configuration and checks every one of
// the 65,536 keys through LookupEntry and through the batched float32 path
// under every kernel the host runs, against a linear scan of the entries.
// Sizes of 1,000 entries and up train three stages, where a leaf can
// collect responsibility from several parents out of key order; that is
// the case a merge of responsibility intervals that assumes key order
// gets wrong, and the exact error bounds must cover it.
func TestExhaustive16BitOracle(t *testing.T) {
	seeds := 600
	if testing.Short() || raceEnabled {
		seeds = 100
	}
	keys := make([]uint32, oracleKeys)
	for k := range keys {
		keys[k] = uint32(k)
	}
	want := make([]int32, oracleKeys)
	out := make([]int32, oracleKeys)
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		kind := seed % 3
		n := 50 + rng.Intn(4001)
		entries := oracleEntries(rng, kind, n)

		// The linear scan: one pass over the sorted entries.
		j := 0
		for k := range want {
			for j < n && int(entries[j].Range.Hi) < k {
				j++
			}
			want[k] = -1
			if j < n && int(entries[j].Range.Lo) <= k {
				want[k] = int32(j)
			}
		}

		shuffled := append([]Entry(nil), entries...)
		rng.Shuffle(n, func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		m, _, err := Train(shuffled, DefaultConfig(n))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m.flat32 == nil {
			t.Fatalf("seed %d: trained model has no float32 form", seed)
		}
		check := func(path string, got func(k int) int32) {
			bad, first := 0, -1
			for k := range want {
				if got(k) != want[k] {
					if bad == 0 {
						first = k
					}
					bad++
				}
			}
			if bad > 0 {
				t.Errorf("seed %d (kind %d, %d entries, widths %v) %s: %d of %d keys wrong; first key %d: got %d, want %d",
					seed, kind, n, m.widths, path, bad, oracleKeys, first, got(first), want[first])
			}
		}
		check("LookupEntry", func(k int) int32 {
			if idx, ok := m.LookupEntry(uint32(k)); ok {
				return int32(idx)
			}
			return -1
		})
		for _, asm := range batchKernels() {
			m.lookupEntryBatchF32(keys, out, asm)
			path := "batch go-f32"
			if asm {
				path = "batch avx2"
			}
			check(path, func(k int) int32 { return out[k] })
		}
		if t.Failed() {
			return
		}
	}
}
