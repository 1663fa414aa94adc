package rqrmi

import (
	"math/rand"
	"testing"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/iset"
	"nuevomatch/internal/rules"
)

// genEntries builds n non-overlapping ranges with the given expected gap and
// width parameters, returning the entries and the universe covered.
func genEntries(rng *rand.Rand, n int, maxGap, maxWidth uint32) []Entry {
	es := make([]Entry, 0, n)
	var cur uint64
	for i := 0; i < n; i++ {
		cur += uint64(rng.Uint32() % (maxGap + 1))
		w := uint64(rng.Uint32() % maxWidth)
		if cur+w > maxKey {
			break
		}
		es = append(es, Entry{Range: rules.Range{Lo: uint32(cur), Hi: uint32(cur + w)}, Value: i * 3})
		cur += w + 1
		if cur > maxKey {
			break
		}
	}
	return es
}

func TestValidateEntries(t *testing.T) {
	_, err := validateEntries([]Entry{
		{Range: rules.Range{Lo: 10, Hi: 20}},
		{Range: rules.Range{Lo: 15, Hi: 30}},
	})
	if err == nil {
		t.Error("overlapping ranges should be rejected")
	}
	_, err = validateEntries([]Entry{{Range: rules.Range{Lo: 20, Hi: 10}}})
	if err == nil {
		t.Error("inverted range should be rejected")
	}
	es, err := validateEntries([]Entry{
		{Range: rules.Range{Lo: 50, Hi: 60}, Value: 1},
		{Range: rules.Range{Lo: 0, Hi: 10}, Value: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if es[0].Value != 0 || es[1].Value != 1 {
		t.Error("entries should be sorted by range start")
	}
	// Adjacent but non-overlapping ranges are fine.
	if _, err := validateEntries([]Entry{
		{Range: rules.Range{Lo: 0, Hi: 10}},
		{Range: rules.Range{Lo: 11, Hi: 20}},
	}); err != nil {
		t.Errorf("adjacent ranges should be accepted: %v", err)
	}
}

func TestEmptyModel(t *testing.T) {
	m, stats, err := Train(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Submodels != 0 {
		t.Errorf("Submodels = %d, want 0", stats.Submodels)
	}
	if _, ok := m.Lookup(1234); ok {
		t.Error("empty model must not find anything")
	}
	if m.Len() != 0 || m.MaxError() != 0 {
		t.Error("empty model invariants violated")
	}
}

func TestSingleEntry(t *testing.T) {
	m, _, err := Train([]Entry{{Range: rules.Range{Lo: 100, Hi: 200}, Value: 7}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint32{100, 150, 200} {
		v, ok := m.Lookup(k)
		if !ok || v != 7 {
			t.Errorf("Lookup(%d) = (%d, %v), want (7, true)", k, v, ok)
		}
	}
	for _, k := range []uint32{0, 99, 201, 1 << 31} {
		if _, ok := m.Lookup(k); ok {
			t.Errorf("Lookup(%d) should miss", k)
		}
	}
}

// exhaustiveCheck verifies every key of a small universe against the naive
// range scan; this exercises correctness at every boundary.
func exhaustiveCheck(t *testing.T, m *Model, es []Entry, upTo uint32) {
	t.Helper()
	for k := uint32(0); k <= upTo; k++ {
		want, found := -1, false
		for _, e := range es {
			if e.Range.Contains(k) {
				want, found = e.Value, true
				break
			}
		}
		got, ok := m.Lookup(k)
		if ok != found || (found && got != want) {
			t.Fatalf("Lookup(%d) = (%d, %v), want (%d, %v)", k, got, ok, want, found)
		}
	}
}

func TestLookupExhaustiveSmallUniverse(t *testing.T) {
	es := []Entry{
		{Range: rules.Range{Lo: 0, Hi: 4}, Value: 0},
		{Range: rules.Range{Lo: 5, Hi: 5}, Value: 1},
		{Range: rules.Range{Lo: 10, Hi: 19}, Value: 2},
		{Range: rules.Range{Lo: 25, Hi: 40}, Value: 3},
		{Range: rules.Range{Lo: 41, Hi: 41}, Value: 4},
		{Range: rules.Range{Lo: 100, Hi: 120}, Value: 5},
	}
	m, _, err := Train(es, Config{})
	if err != nil {
		t.Fatal(err)
	}
	exhaustiveCheck(t, m, es, 200)
}

func TestLookupRandomRanges(t *testing.T) {
	// Property: for random non-overlapping range sets spread over the full
	// 32-bit domain, lookups agree with the naive scan on boundary keys,
	// interior keys and gap keys.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		es := genEntries(rng, 200, 1<<24, 1<<20)
		m, _, err := Train(es, Config{})
		if err != nil {
			t.Fatal(err)
		}
		probe := func(k uint32) {
			want, found := -1, false
			for _, e := range es {
				if e.Range.Contains(k) {
					want, found = e.Value, true
					break
				}
			}
			got, ok := m.Lookup(k)
			if ok != found || (found && got != want) {
				t.Fatalf("trial %d: Lookup(%d) = (%d, %v), want (%d, %v)", trial, k, got, ok, want, found)
			}
		}
		for _, e := range es {
			probe(e.Range.Lo)
			probe(e.Range.Hi)
			if e.Range.Lo > 0 {
				probe(e.Range.Lo - 1)
			}
			if e.Range.Hi < rules.MaxValue {
				probe(e.Range.Hi + 1)
			}
			probe(e.Range.Lo + uint32(e.Range.Size()/2))
		}
		for i := 0; i < 2000; i++ {
			probe(rng.Uint32())
		}
	}
}

func TestLookupThreeStages(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	es := genEntries(rng, 1500, 1<<20, 1<<16)
	cfg := Config{}
	cfg.StageWidths = []int{1, 4, 16}
	m, stats, err := Train(es, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStages() != 3 {
		t.Fatalf("NumStages = %d, want 3", m.NumStages())
	}
	if stats.Submodels != 1+4+16 {
		t.Errorf("Submodels = %d, want 21", stats.Submodels)
	}
	for _, e := range es {
		if v, ok := m.Lookup(e.Range.Lo); !ok || v != e.Value {
			t.Fatalf("Lookup(%d) = (%d, %v), want (%d, true)", e.Range.Lo, v, ok, e.Value)
		}
		if v, ok := m.Lookup(e.Range.Hi); !ok || v != e.Value {
			t.Fatalf("Lookup(%d) = (%d, %v), want (%d, true)", e.Range.Hi, v, ok, e.Value)
		}
	}
	for i := 0; i < 5000; i++ {
		k := rng.Uint32()
		want, found := -1, false
		for _, e := range es {
			if e.Range.Contains(k) {
				want, found = e.Value, true
				break
			}
		}
		got, ok := m.Lookup(k)
		if ok != found || (found && got != want) {
			t.Fatalf("Lookup(%d) = (%d, %v), want (%d, %v)", k, got, ok, want, found)
		}
	}
}

func TestAdjacentRangesNoGap(t *testing.T) {
	// Back-to-back ranges: every key is covered; indexes must be exact.
	es := make([]Entry, 64)
	lo := uint32(0)
	for i := range es {
		hi := lo + 1000
		es[i] = Entry{Range: rules.Range{Lo: lo, Hi: hi}, Value: i}
		lo = hi + 1
	}
	m, _, err := Train(es, Config{})
	if err != nil {
		t.Fatal(err)
	}
	exhaustiveCheck(t, m, es, 66000)
}

func TestErrorBoundIsRespected(t *testing.T) {
	// The stored per-leaf bound must cover the observed prediction error of
	// every covered key we can feasibly probe.
	rng := rand.New(rand.NewSource(5))
	inputs := [][]Entry{
		genEntries(rng, 300, 1<<22, 1<<18),
		// Three entries a few keys apart at the bottom of the key space and
		// two far above: a root that followed the steps exactly would need
		// weights whose rounding noise reorders keys near a bucket
		// boundary, and then propagate's responsibilities disagree with
		// routing (maxWeight exists for this).
		{
			{Range: rules.Range{Lo: 0x1d, Hi: 0x1d}},
			{Range: rules.Range{Lo: 0x22, Hi: 0x23}},
			{Range: rules.Range{Lo: 0x28, Hi: 0x28}},
			{Range: rules.Range{Lo: 0x97815644, Hi: 0x9783f172}},
			{Range: rules.Range{Lo: 0x97b65320, Hi: 0x97b653a8}},
		},
	}
	for n, es := range inputs {
		m, _, err := Train(es, Config{SafetySlack: -1}) // store the exact measured bound
		if err != nil {
			t.Fatal(err)
		}
		probe := func(k uint32) {
			ti := -1
			for i, e := range es {
				if e.Range.Contains(k) {
					ti = i
					break
				}
			}
			if ti < 0 {
				return
			}
			// es is sorted by construction, so position == entry index.
			leaf, pred := m.route(uint64(k))
			d := pred - ti
			if d < 0 {
				d = -d
			}
			if int32(d) > m.errs[leaf] {
				t.Fatalf("input %d, key %d: |pred-true| = %d exceeds leaf %d bound %d", n, k, d, leaf, m.errs[leaf])
			}
		}
		for _, e := range es {
			probe(e.Range.Lo)
			probe(e.Range.Hi)
		}
		for i := 0; i < 20000; i++ {
			probe(rng.Uint32())
		}
	}
}

// TestDeterministicTraining trains the same entries twice — with different
// worker counts and seeds, neither of which may matter — and requires
// identical submodels and bounds.
func TestDeterministicTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	adjacent := make([]Entry, 500)
	for i := range adjacent {
		adjacent[i] = Entry{Range: rules.Range{Lo: uint32(i * 7), Hi: uint32(i*7 + 6)}, Value: i}
	}
	inputs := map[string][]Entry{
		"sparse":   genEntries(rng, 120, 1<<24, 1<<20),
		"clusters": genEntries(rng, 3000, 1<<12, 1<<8),
		"adjacent": adjacent,
	}
	for name, es := range inputs {
		m1, _, err := Train(es, Config{Workers: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		m2, _, err := Train(es, Config{Workers: 4, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		for si := range m1.stages {
			for j := range m1.stages[si] {
				a, b := &m1.stages[si][j], &m2.stages[si][j]
				same := a.b2 == b.b2 && a.inLo == b.inLo && a.inSpan == b.inSpan
				for k := range a.w1 {
					same = same && a.w1[k] == b.w1[k] && a.b1[k] == b.b1[k] && a.w2[k] == b.w2[k]
				}
				if !same {
					t.Fatalf("%s: stage %d submodel %d differs between identical runs", name, si, j)
				}
			}
		}
		for j := range m1.errs {
			if m1.errs[j] != m2.errs[j] {
				t.Fatalf("%s: leaf %d error bound differs between identical runs", name, j)
			}
		}
	}
}

// TestBenchRuleSetsMeetTarget trains every iSet of the benchmark's three
// rule-sets with the engine's defaults and requires every model to meet the
// paper's error threshold (§5.1).
func TestBenchRuleSetsMeetTarget(t *testing.T) {
	for _, c := range []struct {
		profile string
		size    int
	}{{"acl1", 50000}, {"fw5", 20000}, {"ipc1", 20000}} {
		prof, err := classbench.ProfileByName(c.profile)
		if err != nil {
			t.Fatal(err)
		}
		rs := classbench.Generate(prof, c.size)
		part := iset.Build(rs, iset.Options{MaxISets: 4, MinCoverage: 0.05})
		for i, is := range part.ISets {
			entries := make([]Entry, len(is.Positions))
			for j, pos := range is.Positions {
				entries[j] = Entry{Range: rs.Rules[pos].Fields[is.Field], Value: pos}
			}
			m, _, err := Train(entries, Config{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(len(entries))
			if m.MaxError() > cfg.TargetError+cfg.SafetySlack {
				t.Errorf("%s-%d iSet %d (%d entries): max error %d exceeds target %d + slack %d",
					c.profile, c.size, i, len(entries), m.MaxError(), cfg.TargetError, cfg.SafetySlack)
			}
		}
	}
}

func TestMemoryFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	es := genEntries(rng, 100, 1<<24, 1<<16)
	m, _, err := Train(es, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 5 submodels (1+4), 8 hidden => (25+2)*4 = 108 bytes each, plus 4 leaf
	// error bounds and 8 bytes bookkeeping.
	want := 5*108 + 4*4 + 8
	if got := m.MemoryFootprint(); got != want {
		t.Errorf("MemoryFootprint = %d, want %d", got, want)
	}
	// Boundary arrays and payloads plus the 8KB coarse gap bitmap.
	if got := m.ValueArrayBytes(); got != 12*len(es)+8*1024 {
		t.Errorf("ValueArrayBytes = %d, want %d", got, 12*len(es)+8*1024)
	}
}

func TestStageWidthsForSize(t *testing.T) {
	cases := []struct {
		n    int
		want []int
	}{
		{10, []int{1, 4}},
		{999, []int{1, 4}},
		{1000, []int{1, 4, 16}},
		{10000, []int{1, 4, 128}},
		{100000, []int{1, 8, 256}},
		{250000, []int{1, 8, 256}},
		{500000, []int{1, 8, 512}},
	}
	for _, c := range cases {
		got := StageWidthsForSize(c.n)
		if len(got) != len(c.want) {
			t.Errorf("StageWidthsForSize(%d) = %v, want %v", c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("StageWidthsForSize(%d) = %v, want %v", c.n, got, c.want)
				break
			}
		}
	}
}

func TestConfigRejectsBadFirstWidth(t *testing.T) {
	cfg := Config{}
	cfg.StageWidths = []int{2, 4}
	if _, _, err := Train([]Entry{{Range: rules.Range{Lo: 0, Hi: 1}}}, cfg); err == nil {
		t.Error("first stage width != 1 should be rejected")
	}
}

func TestTargetErrorZeroValueUsesDefault(t *testing.T) {
	cfg := Config{}.withDefaults(500)
	if cfg.TargetError != 64 || cfg.Hidden != 8 || cfg.SafetySlack != 1 {
		t.Errorf("withDefaults gave %+v", cfg)
	}
	cfg = Config{SafetySlack: -1}.withDefaults(500)
	if cfg.SafetySlack != 0 {
		t.Errorf("negative SafetySlack should clamp to 0, got %d", cfg.SafetySlack)
	}
}

func TestFullDomainSingleRange(t *testing.T) {
	// One range covering the entire key space: every lookup hits.
	es := []Entry{{Range: rules.FullRange(), Value: 42}}
	m, _, err := Train(es, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint32{0, 1, 1 << 16, 1 << 31, rules.MaxValue} {
		if v, ok := m.Lookup(k); !ok || v != 42 {
			t.Errorf("Lookup(%d) = (%d, %v), want (42, true)", k, v, ok)
		}
	}
}

func TestExactMatchEntries(t *testing.T) {
	// Dense exact-match keys (ranges of size 1) — the hash-table-like case.
	es := make([]Entry, 256)
	for i := range es {
		k := uint32(i * 1000003)
		es[i] = Entry{Range: rules.ExactRange(k), Value: i}
	}
	m, _, err := Train(es, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range es {
		if v, ok := m.Lookup(e.Range.Lo); !ok || v != i {
			t.Fatalf("Lookup(%d) = (%d, %v), want (%d, true)", e.Range.Lo, v, ok, i)
		}
		if _, ok := m.Lookup(e.Range.Lo + 1); ok {
			t.Fatalf("Lookup(%d) should miss", e.Range.Lo+1)
		}
	}
}
