package tuplemerge

import (
	"math"
	"math/rand"
	"testing"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/classifiers/conformance"
	"nuevomatch/internal/classifiers/tuplehash"
	"nuevomatch/internal/rules"
)

func TestConformance(t *testing.T) {
	conformance.Check(t, Build, 3, []int{1, 10, 100, 500}, 200)
}

func TestDegenerate(t *testing.T) {
	conformance.CheckDegenerate(t, Build)
}

// TestFrozenSkipMatchesReference runs the shared frozen-form harness: Lookup
// and LookupBatch with a skip list, under random and straggler bounds.
func TestFrozenSkipMatchesReference(t *testing.T) {
	conformance.CheckFrozenSkip(t, Build, 43, 600, 800)
}

// tupleSpaceTables is the table count of Tuple Space Search over rs: one
// table per distinct tuple of field prefix lengths.
func tupleSpaceTables(rs *rules.RuleSet) int {
	tuples := make(map[string]bool)
	for i := range rs.Rules {
		tuples[tuplehash.Key(tuplehash.Lens(&rs.Rules[i]))] = true
	}
	return len(tuples)
}

func TestMergesTablesComparedToTSS(t *testing.T) {
	// Rules with similar-but-unequal prefix lengths: TSS needs one table
	// per distinct tuple, TupleMerge folds them into relaxed tables.
	rng := rand.New(rand.NewSource(7))
	rs := rules.NewRuleSet(5)
	for i := 0; i < 400; i++ {
		rs.AddAuto(
			rules.PrefixRange(rng.Uint32(), 17+rng.Intn(7)), // /17../23
			rules.PrefixRange(rng.Uint32(), 9+rng.Intn(7)),  // /9../15
			rules.FullRange(),
			rules.ExactRange(uint32(rng.Intn(1000))),
			rules.ExactRange(6),
		)
	}
	tm := New(rs, DefaultConfig())
	if tssTables := tupleSpaceTables(rs); tm.NumTables() >= tssTables {
		t.Errorf("TupleMerge tables = %d, TSS tables = %d; merging should reduce the count",
			tm.NumTables(), tssTables)
	}
	// Merging must not change results.
	for i := 0; i < 500; i++ {
		p := conformance.RandomPacket(rng, rs)
		if got, want := tm.Lookup(p), rs.MatchID(p); got != want {
			t.Fatalf("Lookup(%v) = %d, want %d", p, got, want)
		}
	}
}

func TestCollisionLimitSplitsTables(t *testing.T) {
	// Many rules sharing a masked key in a relaxed table but with longer
	// exact tuples: the bucket must be split instead of growing unbounded.
	rs := rules.NewRuleSet(2)
	for i := 0; i < 200; i++ {
		// All fall into the same /8-masked bucket; exact tuples are /32.
		rs.AddAuto(rules.ExactRange(0x0a000000|uint32(i)), rules.ExactRange(uint32(i)))
	}
	cfg := Config{CollisionLimit: 10, RelaxBits: 8, RelaxCap: 8}
	c := New(rs, cfg)
	for i := 0; i < 200; i++ {
		p := rules.Packet{0x0a000000 | uint32(i), uint32(i)}
		if got := c.Lookup(p); got != i {
			t.Fatalf("Lookup(rule %d) = %d", i, got)
		}
	}
}

func TestInsertDeleteLifecycle(t *testing.T) {
	rs := rules.NewRuleSet(2)
	c := New(rs, DefaultConfig())
	r := rules.Rule{ID: 1, Priority: 1, Fields: []rules.Range{{Lo: 10, Hi: 20}, rules.FullRange()}}
	if err := c.Insert(r); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(r); err == nil {
		t.Fatal("duplicate insert should fail")
	}
	if got := c.Lookup(rules.Packet{15, 3}); got != 1 {
		t.Fatalf("Lookup = %d, want 1", got)
	}
	if err := c.Delete(1); err != nil {
		t.Fatal(err)
	}
	if got := c.Lookup(rules.Packet{15, 3}); got != rules.NoMatch {
		t.Fatalf("Lookup after delete = %d, want no match", got)
	}
	if err := c.Delete(1); err == nil {
		t.Fatal("double delete should fail")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
}

func TestRandomizedUpdatesAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := New(rules.NewRuleSet(3), DefaultConfig())
	live := map[int]rules.Rule{}
	nextID := 0
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(4); {
		case op <= 1 || len(live) == 0: // insert-biased
			fields := make([]rules.Range, 3)
			for d := range fields {
				switch rng.Intn(3) {
				case 0:
					fields[d] = rules.PrefixRange(rng.Uint32(), 8*rng.Intn(5))
				case 1:
					lo := rng.Uint32() % 1000
					fields[d] = rules.Range{Lo: lo, Hi: lo + rng.Uint32()%1000}
				default:
					fields[d] = rules.ExactRange(rng.Uint32() % 100)
				}
			}
			r := rules.Rule{ID: nextID, Priority: int32(nextID), Fields: fields}
			nextID++
			live[r.ID] = r
			if err := c.Insert(r); err != nil {
				t.Fatal(err)
			}
		case op == 2:
			for id := range live {
				delete(live, id)
				if err := c.Delete(id); err != nil {
					t.Fatal(err)
				}
				break
			}
		default:
			ref := rules.NewRuleSet(3)
			for _, r := range live {
				ref.Add(r)
			}
			var p rules.Packet
			if len(live) > 0 && rng.Intn(2) == 0 {
				p = conformance.RandomPacket(rng, ref)
			} else {
				p = rules.Packet{rng.Uint32() % 2000, rng.Uint32() % 2000, rng.Uint32() % 200}
			}
			if got, want := c.Lookup(p), ref.MatchID(p); got != want {
				t.Fatalf("step %d: Lookup(%v) = %d, want %d", step, p, got, want)
			}
		}
	}
}

func TestRelaxBitsOneDegeneratesToTSS(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rs := conformance.RandomRuleSet(rng, 300, 5)
	exact := New(rs, Config{CollisionLimit: 40, RelaxBits: 1, RelaxCap: 32})
	tssTables := tupleSpaceTables(rs)
	// With 1-bit granularity no relaxation happens on table creation, so
	// the table count cannot be below a TSS build of the same set... but
	// merging of longer tuples into earlier tables still applies, so it
	// must be at most the TSS count.
	if exact.NumTables() > tssTables {
		t.Errorf("RelaxBits=1 tables = %d > TSS tables = %d", exact.NumTables(), tssTables)
	}
	for i := 0; i < 300; i++ {
		p := conformance.RandomPacket(rng, rs)
		if got, want := exact.Lookup(p), rs.MatchID(p); got != want {
			t.Fatalf("Lookup(%v) = %d, want %d", p, got, want)
		}
	}
}

// TestSplitBucketKeepsPriorityOrder is the regression test for a bucket-
// ordering bug: when splitBucket's degenerate fallback returned unhostable
// movers to the kept bucket, they were appended at the end, breaking the
// ascending-priority invariant the early-stop scan in LookupWithBound relies
// on — high-priority rules behind the out-of-place entry became unreachable.
//
// The construction forces exactly that path with CollisionLimit 3: rules
// insert in priority order into the loose [0,0] table, the bucket overflows
// with movers whose element-wise tuple minimum degenerates to the table
// tuple ([0,8] vs [8,0] -> [0,0]), the fallback keeps the [0,8] mover's
// tuple, and the unhostable [8,0] rule (priority 2) is returned to the kept
// bucket behind the wildcards (priorities 3, 4). The scan then matches the
// priority-3 wildcard, breaks at the priority-4 one, and never reaches the
// better rule.
func TestSplitBucketKeepsPriorityOrder(t *testing.T) {
	rs := rules.NewRuleSet(2)
	add := func(id int, prio int32, f0, f1 rules.Range) {
		rs.Add(rules.Rule{ID: id, Priority: prio, Fields: []rules.Range{f0, f1}})
	}
	add(1, 1, rules.FullRange(), rules.PrefixRange(0xBB000000, 8)) // mover, hosts the split tuple
	add(2, 2, rules.PrefixRange(0xAA000000, 8), rules.FullRange()) // unhostable mover: the victim
	add(3, 3, rules.FullRange(), rules.FullRange())
	add(4, 4, rules.FullRange(), rules.FullRange())
	c := New(rs, Config{CollisionLimit: 3, RelaxBits: 16, RelaxCap: 16})

	p := rules.Packet{0xAA000001, 0x11000000} // matches rules 2, 3, 4
	if got, want := c.Lookup(p), rs.MatchID(p); got != want {
		t.Fatalf("Lookup(%v) = %d, want %d", p, got, want)
	}
	if got := c.Lookup(p); got != 2 {
		t.Fatalf("Lookup = %d, want the buried rule 2", got)
	}
}

// TestInsertKeepsTableBounds checks the priority-aware placement: an online
// insert goes to a compatible table whose bestPrio already beats the rule,
// even when a tighter compatible table exists, so no table's bound drops.
func TestInsertKeepsTableBounds(t *testing.T) {
	full := rules.FullRange()
	rs := rules.NewRuleSet(5)
	// Table (16,0,0,0,0) with bound 1.
	rs.Add(rules.Rule{ID: 1, Priority: 1, Fields: []rules.Range{
		rules.PrefixRange(0x0A000000, 16), full, full, full, full}})
	// Table (0,16,0,16,0) with bound 50: tighter for the insert below.
	rs.Add(rules.Rule{ID: 2, Priority: 50, Fields: []rules.Range{
		full, rules.PrefixRange(0x0B000000, 16), full, rules.ExactRange(80), full}})
	c := New(rs, DefaultConfig())
	if c.NumTables() != 2 {
		t.Fatalf("setup built %d tables, want 2", c.NumTables())
	}
	before := append([]int32(nil), c.prios...)

	r := rules.Rule{ID: 3, Priority: 20, Fields: []rules.Range{
		rules.PrefixRange(0x0C000000, 16), rules.PrefixRange(0x0B000000, 16),
		full, rules.ExactRange(80), full}}
	if err := c.Insert(r); err != nil {
		t.Fatal(err)
	}
	if got := c.whereIs[r.ID].t.bestPrio; got > r.Priority {
		t.Fatalf("insert at priority %d landed in a table with bound %d", r.Priority, got)
	}
	for i, p := range c.prios {
		if p != before[i] {
			t.Fatalf("table bounds %v -> %v: the insert lowered a bound", before, c.prios)
		}
	}
	if got := c.Lookup(rules.Packet{0x0C000001, 0x0B000001, 7, 80, 6}); got != r.ID {
		t.Fatalf("Lookup = %d, want %d", got, r.ID)
	}

	// Random inserts: whenever a compatible table already beats the rule,
	// no existing table's bound may drop.
	rng := rand.New(rand.NewSource(12))
	c = New(randomRuleSet(rng, 400), DefaultConfig())
	for i, src := range randomRuleSet(rng, 300).Rules {
		ins := rules.Rule{ID: 10000 + i, Priority: int32(rng.Intn(500)), Fields: src.Fields}
		lens := tuplehash.Lens(&ins)
		fits := false
		prev := make(map[*table]int32, len(c.tables))
		for _, tb := range c.tables {
			prev[tb] = tb.bestPrio
			fits = fits || tuplehash.CoversTuple(tb.lens, lens) && tb.bestPrio <= ins.Priority
		}
		if err := c.Insert(ins); err != nil {
			t.Fatal(err)
		}
		if !fits {
			continue
		}
		for tb, p := range prev {
			if tb.bestPrio != p {
				t.Fatalf("insert %d at priority %d lowered a table bound %d -> %d", i, ins.Priority, p, tb.bestPrio)
			}
		}
	}
}

// TestDriftProbeCount bounds the frozen tables a lookup must visit once
// online inserts at random priorities have landed. Under the tightest-table
// rule such inserts lower most tables' best priority, so every lookup walks
// far more tables before its bound stops it. Each packet's bound is its own
// answer's priority: the remainder's position in the engine when the iSets
// found the answer and the walk only proves that nothing beats it. The mean
// is taken over twelve drift draws because one broad insert at a low
// priority can decide a single draw.
func TestDriftProbeCount(t *testing.T) {
	const draws, pkts = 12, 4000
	total := 0
	for draw := int64(0); draw < draws; draw++ {
		c, all := driftedFW5(t, 5000, 500, draw)
		f := c.Freeze().(*Frozen)
		prio := make(map[int]int32, len(all))
		for _, r := range all {
			prio[r.ID] = r.Priority
		}
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < pkts; i++ {
			p := classbench.MatchingPacket(rng, &all[rng.Intn(len(all))])
			bound := int32(math.MaxInt32)
			if id := f.Lookup(p, bound, nil); id >= 0 {
				bound = prio[id]
			}
			// Lookup hashes exactly the leading tables that could beat it.
			for ti := 0; ti < len(f.tabs) && f.tabs[ti].prio < bound; ti++ {
				total++
			}
		}
	}
	mean := float64(total) / (draws * pkts)
	t.Logf("%.2f frozen tables visited per packet", mean)
	if mean > 12 {
		t.Fatalf("%.2f frozen tables visited per packet, want <= 12", mean)
	}
}
