package rqrmi

import (
	"bytes"
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

func TestLookupEntryBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 7, 100, 2000} {
		entries := randomEntries(rng, n)
		m, _, err := Train(entries, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if m.flat == nil {
			t.Fatalf("n=%d: trained model must have flattened parameters", n)
		}
		// Keys: uniform random plus exact boundaries (worst case for the
		// secondary search window).
		keys := make([]uint32, 0, 4096)
		for i := 0; i < 2048; i++ {
			keys = append(keys, rng.Uint32())
		}
		for _, e := range entries {
			keys = append(keys, e.Range.Lo, e.Range.Hi)
		}
		out := make([]int32, len(keys))
		m.LookupEntryBatch(keys, out)
		for i, k := range keys {
			idx, ok := m.LookupEntry(k)
			want := int32(-1)
			if ok {
				want = int32(idx)
			}
			if out[i] != want {
				t.Fatalf("n=%d key %d: batch %d, scalar %d", n, k, out[i], want)
			}
		}
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
	if m2.flat == nil {
		t.Fatal("deserialized model must have flattened parameters")
	}
	keys := make([]uint32, 1000)
	for i := range keys {
		keys[i] = rng.Uint32()
	}
	a := make([]int32, len(keys))
	b := make([]int32, len(keys))
	m.LookupEntryBatch(keys, a)
	m2.LookupEntryBatch(keys, b)
	for i := range keys {
		if a[i] != b[i] {
			t.Fatalf("key %d: original %d, round-trip %d", keys[i], a[i], b[i])
		}
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
