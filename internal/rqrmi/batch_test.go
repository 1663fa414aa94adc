package rqrmi

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nuevomatch/internal/rules"
)

// randomEntries builds n non-overlapping ranges with gaps so both hit and
// miss paths are exercised.
func randomEntries(rng *rand.Rand, n int) []Entry {
	entries := make([]Entry, 0, n)
	lo := uint32(rng.Intn(1000))
	for i := 0; i < n; i++ {
		hi := lo + uint32(rng.Intn(1<<16))
		entries = append(entries, Entry{Range: rules.Range{Lo: lo, Hi: hi}, Value: i})
		lo = hi + 2 + uint32(rng.Intn(5000))
	}
	return entries
}

// batchKernels lists the float32 kernels this build and host can run: the
// pure-Go form always, the AVX2 assembly where available.
func batchKernels() []bool {
	if HasAsmKernel() {
		return []bool{false, true}
	}
	return []bool{false}
}

// scalarEntries resolves keys one at a time through ref.LookupEntry, the
// exact reference every batched form must reproduce.
func scalarEntries(ref *Model, keys []uint32) []int32 {
	want := make([]int32, len(keys))
	for i, k := range keys {
		want[i] = -1
		if idx, ok := ref.LookupEntry(k); ok {
			want[i] = int32(idx)
		}
	}
	return want
}

// probeKeys returns n uniform random keys plus every entry's boundaries
// (the worst case for the secondary search window).
func probeKeys(rng *rand.Rand, entries []Entry, n int) []uint32 {
	keys := make([]uint32, 0, n+2*len(entries))
	for i := 0; i < n; i++ {
		keys = append(keys, rng.Uint32())
	}
	for _, e := range entries {
		keys = append(keys, e.Range.Lo, e.Range.Hi)
	}
	return keys
}

// checkF32Kernels runs m's float32 batched path under every available
// kernel and demands it equal ref.LookupEntry key for key.
func checkF32Kernels(t *testing.T, m, ref *Model, keys []uint32) {
	t.Helper()
	if m.flat32 == nil {
		t.Fatal("model must have a float32 form")
	}
	want := scalarEntries(ref, keys)
	out := make([]int32, len(keys))
	for _, asm := range batchKernels() {
		m.lookupEntryBatchF32(keys, out, asm)
		for i, k := range keys {
			if out[i] != want[i] {
				t.Fatalf("asm=%v key %d: batch %d, scalar %d", asm, k, out[i], want[i])
			}
		}
	}
}

func TestLookupEntryBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 7, 100, 2000} {
		entries := randomEntries(rng, n)
		m, _, err := Train(entries, Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			checkF32Kernels(t, m, m, probeKeys(rng, entries, 2048))
		})
	}
}

func TestLookupEntryBatchAfterSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	entries := randomEntries(rng, 300)
	m, _, err := Train(entries, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Against the original model's scalar path: the round trip must
	// preserve answers as well as the kernels' agreement.
	checkF32Kernels(t, m2, m, probeKeys(rng, entries, 1000))
}

// TestLookupEntryBatchWithoutFloat32Form damages a trained model in each
// way that leaves it without a float32 form and checks that
// LookupEntryBatch then still equals LookupEntry key for key.
func TestLookupEntryBatchWithoutFloat32Form(t *testing.T) {
	cases := []struct {
		name   string
		damage func(s *submodel)
	}{
		{"non-uniform hidden width", func(s *submodel) {
			// A dead unit: the network computes the same function.
			s.w1 = append(s.w1, 0)
			s.b1 = append(s.b1, -1)
			s.w2 = append(s.w2, 0)
		}},
		{"infinite weight", func(s *submodel) { s.w2[0] = math.Inf(1) }},
		{"NaN weight", func(s *submodel) { s.w1[0] = math.NaN() }},
		{"span reciprocal overflows float32", func(s *submodel) { s.inSpan = 1e-40 }},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23 + int64(ci)))
			entries := randomEntries(rng, 500)
			m, _, err := Train(entries, Config{})
			if err != nil {
				t.Fatal(err)
			}
			last := m.stages[len(m.stages)-1]
			tc.damage(&last[len(last)/2])
			m.finalize()
			if m.flat32 != nil {
				t.Fatal("damaged model still has a float32 form")
			}
			keys := probeKeys(rng, entries, 2048)
			want := scalarEntries(m, keys)
			out := make([]int32, len(keys))
			m.LookupEntryBatch(keys, out)
			for i, k := range keys {
				if out[i] != want[i] {
					t.Fatalf("key %d: batch %d, scalar %d", k, out[i], want[i])
				}
			}
		})
	}
}

func TestLookupEntryBatchEmptyModel(t *testing.T) {
	m, _, err := Train(nil, DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int32, 3)
	m.LookupEntryBatch([]uint32{1, 2, 3}, out)
	for i, v := range out {
		if v != -1 {
			t.Fatalf("out[%d] = %d, want -1", i, v)
		}
	}
}
