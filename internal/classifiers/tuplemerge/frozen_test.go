package tuplemerge

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/classifiers/tuplehash"
	"nuevomatch/internal/rules"
)

func randomRuleSet(rng *rand.Rand, n int) *rules.RuleSet {
	rs := rules.NewRuleSet(5)
	for i := 0; i < n; i++ {
		rs.AddAuto(
			rules.PrefixRange(rng.Uint32(), rng.Intn(33)),
			rules.PrefixRange(rng.Uint32(), rng.Intn(33)),
			rules.Range{Lo: 0, Hi: 65535},
			rules.ExactRange(uint32(rng.Intn(1000))),
			rules.ExactRange(uint32(rng.Intn(3))),
		)
	}
	return rs
}

func randomPacket(rng *rand.Rand, rs *rules.RuleSet) rules.Packet {
	p := make(rules.Packet, 5)
	if rng.Intn(2) == 0 && rs.Len() > 0 {
		r := &rs.Rules[rng.Intn(rs.Len())]
		for d, f := range r.Fields {
			span := uint64(f.Hi) - uint64(f.Lo)
			p[d] = f.Lo + uint32(rng.Int63n(int64(span+1)))
		}
	} else {
		for d := range p {
			p[d] = rng.Uint32()
		}
	}
	return p
}

// TestFrozenAgreesWithLive freezes a classifier and checks that the
// compiled form answers exactly like the live one, across random bounds.
func TestFrozenAgreesWithLive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	rs := randomRuleSet(rng, 800)
	c := New(rs, DefaultConfig())
	f := c.Freeze()
	if f.Len() != c.Len() {
		t.Fatalf("frozen Len = %d, live Len = %d", f.Len(), c.Len())
	}
	if f.MemoryFootprint() <= 0 {
		t.Fatal("frozen MemoryFootprint must be positive")
	}
	for i := 0; i < 4000; i++ {
		p := randomPacket(rng, rs)
		bound := int32(math.MaxInt32)
		if rng.Intn(3) == 0 {
			bound = int32(rng.Intn(rs.Len() + 1))
		}
		got := f.Lookup(p, bound, nil)
		want := c.LookupWithBound(p, bound)
		if got != want {
			t.Fatalf("packet %v bound %d: frozen %d, live %d", p, bound, got, want)
		}
	}
}

// TestFrozenSkipMasksDeletedRules checks that the sorted skip list makes
// the frozen form answer exactly like a live classifier with those rules
// actually deleted — including surfacing buried lower-priority matches.
func TestFrozenSkipMasksDeletedRules(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	rs := randomRuleSet(rng, 600)
	c := New(rs, DefaultConfig())
	f := c.Freeze()

	skip := make([]int, 0, 60)
	for i := 0; i < 60; i++ {
		id := rs.Rules[rng.Intn(rs.Len())].ID
		at := sort.SearchInts(skip, id)
		if at < len(skip) && skip[at] == id {
			continue
		}
		skip = append(skip, 0)
		copy(skip[at+1:], skip[at:])
		skip[at] = id
		if err := c.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4000; i++ {
		p := randomPacket(rng, rs)
		got := f.Lookup(p, math.MaxInt32, skip)
		want := c.Lookup(p)
		if got != want {
			t.Fatalf("packet %v: frozen+skip %d, live-after-delete %d", p, got, want)
		}
	}
}

// TestFrozenIsDetached verifies Freeze snapshots the contents: updates to
// the live classifier after the freeze must not leak into the frozen form.
func TestFrozenIsDetached(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	rs := randomRuleSet(rng, 200)
	c := New(rs, DefaultConfig())
	f := c.Freeze()

	pkts := make([]rules.Packet, 500)
	want := make([]int, len(pkts))
	for i := range pkts {
		pkts[i] = randomPacket(rng, rs)
		want[i] = c.Lookup(pkts[i])
	}
	// Churn the live classifier.
	for i := 0; i < 100; i++ {
		_ = c.Delete(rs.Rules[i].ID)
	}
	wild := rules.Rule{ID: 999999, Priority: -1, Fields: []rules.Range{
		rules.FullRange(), rules.FullRange(), rules.FullRange(),
		rules.FullRange(), rules.FullRange(),
	}}
	if err := c.Insert(wild); err != nil {
		t.Fatal(err)
	}
	for i, p := range pkts {
		if got := f.Lookup(p, math.MaxInt32, nil); got != want[i] {
			t.Fatalf("frozen answer changed after live churn: %d != %d", got, want[i])
		}
	}
}

// TestFrozenBatchAgreesWithScalar cross-checks the packet-major batch walk
// against per-packet frozen lookups, including the in-place bounds
// tightening and untouched-entry contract.
func TestFrozenBatchAgreesWithScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	rs := randomRuleSet(rng, 700)
	c := New(rs, DefaultConfig())
	f := c.Freeze()

	var skip []int
	for i := 0; i < 20; i++ {
		id := rs.Rules[rng.Intn(rs.Len())].ID
		at := sort.SearchInts(skip, id)
		if at < len(skip) && skip[at] == id {
			continue
		}
		skip = append(skip, 0)
		copy(skip[at+1:], skip[at:])
		skip[at] = id
	}

	const batch = 128
	pkts := make([]rules.Packet, batch)
	bounds := make([]int32, batch)
	scalarBounds := make([]int32, batch)
	out := make([]int, batch)
	for round := 0; round < 30; round++ {
		for i := range pkts {
			pkts[i] = randomPacket(rng, rs)
			bounds[i] = int32(math.MaxInt32)
			if rng.Intn(4) == 0 {
				bounds[i] = int32(rng.Intn(rs.Len() + 1))
			}
			scalarBounds[i] = bounds[i]
			out[i] = -7 // sentinel: untouched unless improved
		}
		f.LookupBatch(pkts, bounds, skip, out)
		for i, p := range pkts {
			want := f.Lookup(p, scalarBounds[i], skip)
			if want < 0 {
				if out[i] != -7 {
					t.Fatalf("round %d pkt %d: batch wrote %d where scalar found nothing", round, i, out[i])
				}
				if bounds[i] != scalarBounds[i] {
					t.Fatalf("round %d pkt %d: bounds changed without a match", round, i)
				}
			} else if out[i] != want {
				t.Fatalf("round %d pkt %d: batch %d, scalar %d", round, i, out[i], want)
			}
		}
	}
}

// TestFrozenEmpty covers the degenerate frozen forms.
func TestFrozenEmpty(t *testing.T) {
	c := New(rules.NewRuleSet(5), DefaultConfig())
	f := c.Freeze()
	if f.Len() != 0 {
		t.Fatalf("empty frozen Len = %d", f.Len())
	}
	p := rules.Packet{1, 2, 3, 4, 5}
	if got := f.Lookup(p, math.MaxInt32, nil); got != rules.NoMatch {
		t.Fatalf("empty frozen Lookup = %d", got)
	}
	out := []int{-7}
	bounds := []int32{math.MaxInt32}
	f.LookupBatch([]rules.Packet{p}, bounds, nil, out)
	if out[0] != -7 {
		t.Fatalf("empty frozen LookupBatch wrote %d", out[0])
	}

	// Freeze after deleting everything: tables are emptied and dropped.
	rng := rand.New(rand.NewSource(75))
	rs := randomRuleSet(rng, 50)
	c2 := New(rs, DefaultConfig())
	for i := range rs.Rules {
		if err := c2.Delete(rs.Rules[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	f2 := c2.Freeze()
	if f2.Len() != 0 {
		t.Fatalf("emptied frozen Len = %d", f2.Len())
	}
	if got := f2.Lookup(p, math.MaxInt32, nil); got != rules.NoMatch {
		t.Fatalf("emptied frozen Lookup = %d", got)
	}
}

// driftedFW5 builds TupleMerge over ClassBench fw5 × n rules at even
// priorities, then inserts nIns more fw5 rules at distinct random odd
// priorities: the shape online drift leaves in the remainder. draw selects
// the inserted rules and their priorities. It returns the classifier and
// every rule it holds.
func driftedFW5(tb testing.TB, n, nIns int, draw int64) (*Classifier, []rules.Rule) {
	tb.Helper()
	prof, err := classbench.ProfileByName("fw5")
	if err != nil {
		tb.Fatal(err)
	}
	rs := classbench.Generate(prof, n)
	for i := range rs.Rules {
		rs.Rules[i].Priority = int32(2 * (i + 1))
	}
	c := New(rs, DefaultConfig())
	all := append([]rules.Rule(nil), rs.Rules...)
	prof.Seed += 104729 + draw
	slots := rand.New(rand.NewSource(prof.Seed)).Perm(n)
	for i, r := range classbench.Generate(prof, nIns).Rules {
		r.ID = 1<<24 + i
		r.Priority = int32(2*slots[i] + 1)
		if err := c.Insert(r); err != nil {
			tb.Fatal(err)
		}
		all = append(all, r)
	}
	return c, all
}

// frozenTables returns the live tables Freeze kept (the non-empty ones),
// indexed like the frozen tables.
func frozenTables(t *testing.T, c *Classifier, f *Frozen) []*table {
	t.Helper()
	var out []*table
	for _, tb := range c.tables {
		if tb.entries > 0 {
			out = append(out, tb)
		}
	}
	if len(out) != len(f.tabs) {
		t.Fatalf("frozen has %d tables, live %d non-empty", len(f.tabs), len(out))
	}
	return out
}

// splitClassifier builds a classifier whose low collision limit splits
// buckets into tables with odd tuple lengths.
func splitClassifier(t *testing.T) (*Classifier, *rules.RuleSet) {
	t.Helper()
	rs := randomRuleSet(rand.New(rand.NewSource(76)), 1500)
	c := New(rs, Config{CollisionLimit: 4})
	odd := false
	for _, tb := range c.tables {
		for _, n := range tb.lens {
			odd = odd || n%2 == 1
		}
	}
	if !odd {
		t.Fatal("setup built no table with an odd tuple length")
	}
	return c, rs
}

// TestFrozenHashMatchesTupleHash checks the branch-free masked hash against
// tuplehash.HashPacket for every table's tuple, split tables included.
func TestFrozenHashMatchesTupleHash(t *testing.T) {
	c, rs := splitClassifier(t)
	f := c.Freeze().(*Frozen)
	tabs := frozenTables(t, c, f)
	rng := rand.New(rand.NewSource(77))
	nf := f.numFields
	for i := 0; i < 200; i++ {
		p := randomPacket(rng, rs)
		for ti, tb := range tabs {
			got := hash(f.tabs[ti].seed, f.masks[ti*nf:ti*nf+nf], p)
			if want := tuplehash.HashPacket(p, tb.lens); got != want {
				t.Fatalf("table %d tuple %v packet %v: hash %#x, tuplehash %#x", ti, tb.lens, p, got, want)
			}
		}
	}
}

// TestFrozenFilterHasNoFalseNegatives checks that every stored bucket hash
// passes its table's filter and that the directory finds the bucket.
func TestFrozenFilterHasNoFalseNegatives(t *testing.T) {
	c, _ := splitClassifier(t)
	drifted, _ := driftedFW5(t, 2000, 200, 1)
	for _, c := range []*Classifier{c, drifted} {
		f := c.Freeze().(*Frozen)
		for ti, tb := range frozenTables(t, c, f) {
			ft := &f.tabs[ti]
			for i, b := range tb.buckets.bs {
				if len(b) == 0 {
					continue
				}
				h := tb.buckets.hs[i]
				if !f.mayHold(ft, h) {
					t.Fatalf("table %d: filter rejects stored bucket hash %#x", ti, h)
				}
				if _, n := f.probe(ft, h); int(n) != len(b) {
					t.Fatalf("table %d: directory returns %d entries for a %d-rule bucket", ti, n, len(b))
				}
			}
		}
	}
}

// BenchmarkFrozenLookupBatchDrifted measures the frozen batch walk after
// online inserts at random priorities (see driftedFW5), in batches of 128
// with no incoming bound.
func BenchmarkFrozenLookupBatchDrifted(b *testing.B) {
	c, all := driftedFW5(b, 5000, 500, 1)
	f := c.Freeze()
	rng := rand.New(rand.NewSource(78))
	pkts := make([]rules.Packet, 4096)
	for i := range pkts {
		pkts[i] = classbench.MatchingPacket(rng, &all[rng.Intn(len(all))])
	}
	const batch = 128
	bounds := make([]int32, batch)
	out := make([]int, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i * batch % len(pkts)
		for j := range bounds {
			bounds[j] = math.MaxInt32
		}
		f.LookupBatch(pkts[off:off+batch], bounds, nil, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/pkt")
}

// boundedPackets freezes TupleMerge over ClassBench acl1 × 5000 rules and
// draws 4096 packets from its rules with the bounds an engine's iSets leave:
// about 87% start at the priority of the rule they were drawn from, the rest
// unbounded, as in acl1-50k where 13% of the remainder queries find a better
// rule.
func boundedPackets(b *testing.B) (rules.FrozenClassifier, []rules.Packet, []int32) {
	prof, err := classbench.ProfileByName("acl1")
	if err != nil {
		b.Fatal(err)
	}
	rs := classbench.Generate(prof, 5000)
	rng := rand.New(rand.NewSource(79))
	pkts := make([]rules.Packet, 4096)
	bounds := make([]int32, len(pkts))
	for i := range pkts {
		r := &rs.Rules[rng.Intn(rs.Len())]
		pkts[i] = classbench.MatchingPacket(rng, r)
		bounds[i] = math.MaxInt32
		if rng.Intn(100) < 87 {
			bounds[i] = r.Priority
		}
	}
	return New(rs, DefaultConfig()).Freeze(), pkts, bounds
}

// BenchmarkFrozenLookupBounded is the per-packet side of the bounded pair:
// Lookup over boundedPackets, 128 packets per iteration.
func BenchmarkFrozenLookupBounded(b *testing.B) {
	f, pkts, bounds := boundedPackets(b)
	const batch = 128
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i * batch % len(pkts)
		for j, p := range pkts[off : off+batch] {
			f.Lookup(p, bounds[off+j], nil)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/pkt")
}

// BenchmarkFrozenLookupBatchBounded is the batched side of the bounded pair:
// LookupBatch over the same packets and bounds, in batches of 128. Its
// ns/pkt should be no higher than BenchmarkFrozenLookupBounded's.
func BenchmarkFrozenLookupBatchBounded(b *testing.B) {
	f, pkts, bounds := boundedPackets(b)
	const batch = 128
	work := make([]int32, batch)
	out := make([]int, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i * batch % len(pkts)
		copy(work, bounds[off:off+batch])
		f.LookupBatch(pkts[off:off+batch], work, nil, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/pkt")
}
