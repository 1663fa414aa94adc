package core

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/classifiers/conformance"
	"nuevomatch/internal/rules"
)

func TestDeleteFromISetTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rs := structuredRuleSet(rng, 200)
	e, err := Build(rs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Find a rule indexed by an iSet and a packet that matches it.
	var victim int = -1
	var pkt rules.Packet
	posID := rs.IndexByID()
	for id := range e.inISet {
		pos := posID[id]
		r := &rs.Rules[pos]
		p := make(rules.Packet, 5)
		for d, f := range r.Fields {
			p[d] = f.Lo
		}
		if rs.MatchID(p) == id {
			victim, pkt = id, p
			break
		}
	}
	if victim < 0 {
		t.Skip("no directly-hittable iSet rule in this draw")
	}
	if got := e.Lookup(pkt); got != victim {
		t.Fatalf("pre-delete Lookup = %d, want %d", got, victim)
	}
	if err := e.Delete(victim); err != nil {
		t.Fatal(err)
	}
	// The victim no longer matches; result must equal the reference
	// without the victim.
	ref := rules.NewRuleSet(5)
	for i := range rs.Rules {
		if rs.Rules[i].ID != victim {
			ref.Add(rs.Rules[i])
		}
	}
	if got, want := e.Lookup(pkt), ref.MatchID(pkt); got != want {
		t.Fatalf("post-delete Lookup = %d, want %d", got, want)
	}
	if e.Updates().DeletedFromISets != 1 {
		t.Errorf("DeletedFromISets = %d, want 1", e.Updates().DeletedFromISets)
	}
	if err := e.Delete(victim); err == nil {
		t.Error("double delete must fail")
	}
}

func TestInsertGoesToRemainder(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rs := structuredRuleSet(rng, 150)
	e, err := Build(rs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := rules.Rule{
		ID:       100000,
		Priority: 0, // beats everything
		Fields: []rules.Range{
			rules.FullRange(), rules.FullRange(), rules.FullRange(),
			rules.FullRange(), rules.FullRange(),
		},
	}
	if err := e.Insert(r); err != nil {
		t.Fatal(err)
	}
	p := conformance.RandomPacket(rng, rs)
	if got := e.Lookup(p); got != 100000 {
		t.Fatalf("Lookup after inserting top-priority wildcard = %d, want 100000", got)
	}
	if err := e.Insert(r); err == nil {
		t.Error("duplicate insert must fail")
	}
	st := e.Updates()
	if st.Inserted != 1 {
		t.Errorf("Inserted = %d, want 1", st.Inserted)
	}
	if st.RemainderFraction <= 0 {
		t.Errorf("RemainderFraction = %v, want > 0 after insert", st.RemainderFraction)
	}
}

func TestModifyMovesRuleToRemainder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rs := structuredRuleSet(rng, 150)
	e, err := Build(rs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	victim := rs.Rules[7]
	mod := victim
	mod.Fields = append([]rules.Range(nil), victim.Fields...)
	mod.Fields[2] = rules.ExactRange(4242)
	if err := e.Modify(mod); err != nil {
		t.Fatal(err)
	}
	p := make(rules.Packet, 5)
	for d, f := range mod.Fields {
		p[d] = f.Lo
	}
	ref := rules.NewRuleSet(5)
	for i := range rs.Rules {
		if rs.Rules[i].ID == mod.ID {
			ref.Add(mod)
		} else {
			ref.Add(rs.Rules[i])
		}
	}
	if got, want := e.Lookup(p), ref.MatchID(p); got != want {
		t.Fatalf("post-modify Lookup = %d, want %d", got, want)
	}
}

func TestUpdateBurstAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	rs := structuredRuleSet(rng, 250)
	e, err := Build(rs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[int]rules.Rule, rs.Len())
	for i := range rs.Rules {
		live[rs.Rules[i].ID] = rs.Rules[i]
	}
	nextID := 10000
	for step := 0; step < 300; step++ {
		switch rng.Intn(3) {
		case 0: // insert
			f := make([]rules.Range, 5)
			for d := range f {
				lo := rng.Uint32()
				f[d] = rules.Range{Lo: lo >> 1, Hi: lo>>1 + rng.Uint32()>>10}
			}
			r := rules.Rule{ID: nextID, Priority: int32(rng.Intn(1000)), Fields: f}
			nextID++
			if err := e.Insert(r); err != nil {
				t.Fatal(err)
			}
			live[r.ID] = r
		case 1: // delete a random live rule
			for id := range live {
				if err := e.Delete(id); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
				break
			}
		default: // verify
			ref := rules.NewRuleSet(5)
			for _, r := range live {
				ref.Add(r)
			}
			p := conformance.RandomPacket(rng, ref)
			got, want := e.Lookup(p), ref.MatchID(p)
			if got != want {
				// Ties allowed: equal priority.
				if got < 0 || want < 0 || live[got].Priority != live[want].Priority {
					t.Fatalf("step %d: Lookup = %d, want %d", step, got, want)
				}
			}
		}
	}

	// Rebuild over the live rules and re-verify: the retrained engine serves
	// the same set.
	e2, err := Build(e.LiveRuleSet(), e.opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := rules.NewRuleSet(5)
	for _, r := range live {
		ref.Add(r)
	}
	for i := 0; i < 500; i++ {
		p := conformance.RandomPacket(rng, ref)
		got, want := e2.Lookup(p), ref.MatchID(p)
		if got != want {
			if got < 0 || want < 0 || live[got].Priority != live[want].Priority {
				t.Fatalf("rebuilt: Lookup = %d, want %d", got, want)
			}
		}
	}
	if f := e2.Updates().RemainderFraction; f < 0 || f > 1 {
		t.Errorf("rebuilt remainder fraction = %v", f)
	}
}

func TestSustainedUpdateModel(t *testing.T) {
	// No updates: full accelerated throughput.
	if got := SustainedUpdateModel(500000, 0, 10, 4); got != 10 {
		t.Errorf("u=0: %v, want 10", got)
	}
	// Infinite updates: converges to the remainder throughput.
	if got := SustainedUpdateModel(500000, 1e12, 10, 4); math.Abs(got-4) > 1e-6 {
		t.Errorf("u→∞: %v, want 4", got)
	}
	// Monotone decreasing in u.
	prev := math.Inf(1)
	for _, u := range []float64{0, 1000, 10000, 100000, 1e6} {
		cur := SustainedUpdateModel(500000, u, 10, 4)
		if cur > prev {
			t.Errorf("model not monotone at u=%v", u)
		}
		prev = cur
	}
	// Degenerate rule count.
	if got := SustainedUpdateModel(0, 10, 10, 4); got != 4 {
		t.Errorf("r=0: %v, want 4", got)
	}
}

func TestLiveRuleSetUsesModifiedFields(t *testing.T) {
	// Regression: a built rule modified via §3.9 (delete + reinsert into
	// the remainder) must appear in LiveRuleSet with its NEW matching set,
	// or a rebuild over it resurrects the stale one.
	rng := rand.New(rand.NewSource(16))
	rs := structuredRuleSet(rng, 120)
	e, err := Build(rs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	victim := rs.Rules[11]
	mod := victim
	mod.Fields = append([]rules.Range(nil), victim.Fields...)
	mod.Fields[3] = rules.ExactRange(31337)
	if err := e.Modify(mod); err != nil {
		t.Fatal(err)
	}
	live := e.LiveRuleSet()
	if live.Len() != 120 {
		t.Fatalf("live size = %d, want 120", live.Len())
	}
	found := false
	for i := range live.Rules {
		if live.Rules[i].ID == mod.ID {
			found = true
			if live.Rules[i].Fields[3] != rules.ExactRange(31337) {
				t.Fatalf("LiveRuleSet kept stale fields: %v", live.Rules[i].Fields[3])
			}
		}
	}
	if !found {
		t.Fatal("modified rule missing from LiveRuleSet")
	}
	// The rebuilt engine must agree with the drifted one everywhere.
	fresh, err := Build(e.LiveRuleSet(), e.opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		p := conformance.RandomPacket(rng, live)
		if a, b := e.Lookup(p), fresh.Lookup(p); a != b {
			t.Fatalf("drifted %d != rebuilt %d on %v", a, b, p)
		}
	}
}

// TestLiveRuleSetReflectsUpdates checks that LiveRuleSet, every lookup path
// and a Save→Load round trip follow the updates, including the edge cases
// of the remainder list's swap-remove and of the (id, priority) table that
// lags the overlay until the next compaction.
func TestLiveRuleSetReflectsUpdates(t *testing.T) {
	wildcard := func(id int, prio int32) rules.Rule {
		r := rules.Rule{ID: id, Priority: prio, Fields: make([]rules.Range, rules.NumFiveTupleFields)}
		for d := range r.Fields {
			r.Fields[d] = rules.FullRange()
		}
		return r
	}
	lastRemainder := func(e *Engine) rules.Rule {
		return e.remainderRules.Rules[e.remainderRules.Len()-1]
	}
	cases := []struct {
		name   string
		update func(t *testing.T, e *Engine, mirror map[int]rules.Rule)
	}{
		{"delete built, insert new", func(t *testing.T, e *Engine, mirror map[int]rules.Rule) {
			mustDelete(t, e, mirror, e.rs.Rules[0].ID)
			mustInsert(t, e, mirror, wildcard(555555, 1))
		}},
		{"delete last remainder rule", func(t *testing.T, e *Engine, mirror map[int]rules.Rule) {
			mustDelete(t, e, mirror, lastRemainder(e).ID)
		}},
		{"delete the only remainder rule", func(t *testing.T, e *Engine, mirror map[int]rules.Rule) {
			for e.remainderRules.Len() > 1 {
				mustDelete(t, e, mirror, e.remainderRules.Rules[0].ID)
			}
			mustDelete(t, e, mirror, e.remainderRules.Rules[0].ID)
			if len(e.remPos) != 0 {
				t.Fatalf("remainder index keeps %d entries after the last delete", len(e.remPos))
			}
		}},
		{"delete then reinsert same ID", func(t *testing.T, e *Engine, mirror map[int]rules.Rule) {
			// A new, winning priority: the ID table still holds the old one
			// until the next compaction, so the merge paths must take the
			// overlay's.
			r := e.remainderRules.Rules[e.remainderRules.Len()/2]
			r.Fields = append([]rules.Range(nil), r.Fields...)
			mustDelete(t, e, mirror, r.ID)
			r.Priority = 0
			mustInsert(t, e, mirror, r)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(15))
			rs := evenPriorityRules(t, "fw5", 300)
			e, err := Build(rs, fastOpts())
			if err != nil {
				t.Fatal(err)
			}
			if e.remainderRules.Len() < 2 {
				t.Fatalf("remainder holds %d rules, the cases need at least 2", e.remainderRules.Len())
			}
			mirror := make(map[int]rules.Rule, rs.Len())
			for _, r := range rs.Rules {
				mirror[r.ID] = r
			}
			tc.update(t, e, mirror)

			lrs := e.LiveRuleSet()
			if lrs.Len() != len(mirror) {
				t.Fatalf("LiveRuleSet size = %d, want %d", lrs.Len(), len(mirror))
			}
			for _, r := range lrs.Rules {
				want, ok := mirror[r.ID]
				if !ok {
					t.Fatalf("LiveRuleSet holds deleted rule %d", r.ID)
				}
				if r.Priority != want.Priority {
					t.Fatalf("LiveRuleSet rule %d has priority %d, want %d", r.ID, r.Priority, want.Priority)
				}
			}
			ref := rules.NewRuleSet(rs.NumFields)
			for _, r := range lrs.Rules {
				ref.Add(r)
			}
			loaded, err := ReadEngine(bytes.NewReader(saveEngine(t, e)), nil)
			if err != nil {
				t.Fatal(err)
			}
			verifyLoadedEquivalence(t, e, loaded, ref, rng, 300)
			// Every live rule's low corner, then random packets.
			var pkts []rules.Packet
			for _, r := range ref.Rules {
				p := make(rules.Packet, ref.NumFields)
				for d, f := range r.Fields {
					p[d] = f.Lo
				}
				pkts = append(pkts, p)
			}
			for i := 0; i < 300; i++ {
				pkts = append(pkts, conformance.RandomPacket(rng, ref))
			}
			for _, p := range pkts {
				if got, want := e.LookupNoEarlyTermination(p), ref.MatchID(p); got != want {
					t.Fatalf("LookupNoEarlyTermination(%v) = %d, want %d", p, got, want)
				}
			}
		})
	}
}

// evenPriorityRules generates n rules of a ClassBench profile with unique
// even priorities, so the linear reference is an exact oracle and odd
// priorities are free for updates.
func evenPriorityRules(t *testing.T, profile string, n int) *rules.RuleSet {
	t.Helper()
	prof, err := classbench.ProfileByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	rs := classbench.Generate(prof, n)
	for i := range rs.Rules {
		rs.Rules[i].Priority = int32(2 * (i + 1))
	}
	return rs
}

func mustDelete(t *testing.T, e *Engine, mirror map[int]rules.Rule, id int) {
	t.Helper()
	if err := e.Delete(id); err != nil {
		t.Fatal(err)
	}
	delete(mirror, id)
}

func mustInsert(t *testing.T, e *Engine, mirror map[int]rules.Rule, r rules.Rule) {
	t.Helper()
	if err := e.Insert(r); err != nil {
		t.Fatal(err)
	}
	mirror[r.ID] = r
}

// hittableRule returns the first rule of rs whose ID keep accepts and that
// wins its own low corner, and that packet.
func hittableRule(t *testing.T, rs *rules.RuleSet, keep func(id int) bool) (rules.Rule, rules.Packet) {
	t.Helper()
	for _, r := range rs.Rules {
		p := make(rules.Packet, rs.NumFields)
		for d, f := range r.Fields {
			p[d] = f.Lo
		}
		if keep(r.ID) && rs.MatchID(p) == r.ID {
			return r, p
		}
	}
	t.Fatal("no hittable rule")
	return rules.Rule{}, nil
}

// TestModifyIsAtomic checks that Modify validates the replacement before
// touching the old rule, and that a valid Modify reaches readers as one
// snapshot: they see the old rule or the new one, never neither.
func TestModifyIsAtomic(t *testing.T) {
	rs := evenPriorityRules(t, "fw5", 300)
	e, err := Build(rs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	inISet := func(id int) bool { _, ok := e.inISet[id]; return ok }
	victim, p := hittableRule(t, rs, inISet)

	bad := victim
	bad.Fields = append([]rules.Range(nil), victim.Fields...)
	bad.Fields[1] = rules.Range{Lo: 9, Hi: 3}
	short := victim
	short.Fields = victim.Fields[:len(victim.Fields)-1]
	for _, r := range []rules.Rule{bad, short} {
		before := e.publishes
		if err := e.Modify(r); err == nil {
			t.Fatalf("Modify accepted an invalid replacement %v", r.Fields)
		}
		if got := e.Lookup(p); got != victim.ID {
			t.Fatalf("after a rejected Modify, Lookup = %d, want the old rule %d", got, victim.ID)
		}
		if e.publishes != before {
			t.Fatalf("a rejected Modify published %d snapshots", e.publishes-before)
		}
	}
	if st := e.Updates(); st.DeletedFromISets+st.Inserted != 0 {
		t.Fatalf("a rejected Modify counted updates: %+v", st)
	}

	notISet := func(id int) bool { return !inISet(id) }
	remVictim, _ := hittableRule(t, rs, notISet)
	for _, old := range []rules.Rule{victim, remVictim} {
		mod := old
		mod.Fields = append([]rules.Range(nil), old.Fields...)
		mod.Priority = old.Priority + 1
		before := e.publishes
		if err := e.Modify(mod); err != nil {
			t.Fatal(err)
		}
		if got := e.publishes - before; got != 1 {
			t.Fatalf("Modify of rule %d published %d snapshots, want 1", old.ID, got)
		}
	}
	if got := e.Lookup(p); got != victim.ID {
		t.Fatalf("after Modify, Lookup = %d, want the modified rule %d", got, victim.ID)
	}
}

// TestISetDeleteCopiesOnlyLiveness bounds what deleting an iSet rule
// allocates on a 50k-rule table: a copy of the liveness bitset (one bit
// per built rule) and a snapshot, not a copy of the per-rule metadata.
func TestISetDeleteCopiesOnlyLiveness(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are only guaranteed without race instrumentation")
	}
	prof, err := classbench.ProfileByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	rs := classbench.Generate(prof, 50000)
	e, err := Build(rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, r := range rs.Rules {
		if _, ok := e.inISet[r.ID]; ok {
			ids = append(ids, r.ID)
		}
		if len(ids) == 20 {
			break
		}
	}
	perOp := bytesPerOp(len(ids), func() {
		for _, id := range ids {
			if err := e.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%.0f B per iSet-rule Delete on %d rules", perOp, rs.Len())
	if perOp > 16<<10 {
		t.Fatalf("an iSet-rule Delete allocates %.0f B, want <= 16 KiB", perOp)
	}
}

// TestUpdateBytesIndependentOfRemainder pins the O(rule) cost of a
// remainder update: deleting and re-inserting the same remainder rules
// allocates about as much per operation against a ~5k-rule remainder as
// against a ~500-rule one. Each round stays under the overlay's compaction
// threshold, so the amortized O(remainder) re-freeze is not counted.
func TestUpdateBytesIndependentOfRemainder(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are only guaranteed without race instrumentation")
	}
	small := remainderUpdateBytes(t, 2000)
	large := remainderUpdateBytes(t, 20000)
	t.Logf("bytes per remainder update: %.0f at 2k rules, %.0f at 20k", small, large)
	if large > 4096 {
		t.Errorf("a remainder update at 20k rules allocates %.0f B, want <= 4096", large)
	}
	if large > 1.5*small {
		t.Errorf("bytes per update grow with the remainder: %.0f at 2k, %.0f at 20k", small, large)
	}
}

func remainderUpdateBytes(t *testing.T, size int) float64 {
	t.Helper()
	prof, err := classbench.ProfileByName("fw5")
	if err != nil {
		t.Fatal(err)
	}
	rs := classbench.Generate(prof, size)
	e, err := Build(rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var victims []rules.Rule
	for _, r := range rs.Rules {
		if _, ok := e.inISet[r.ID]; !ok {
			victims = append(victims, r)
		}
		if len(victims) == 30 {
			break
		}
	}
	round := func() {
		for _, r := range victims {
			if err := e.Delete(r.ID); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range victims {
			if err := e.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	round() // warm-up: the overlay reaches its steady size
	const rounds = 20
	perOp := bytesPerOp(rounds*2*len(victims), func() {
		for i := 0; i < rounds; i++ {
			round()
		}
	})
	if n := e.Updates().OverlayCompactions; n != 0 {
		t.Fatalf("%d compactions: the rounds must stay under the threshold", n)
	}
	return perOp
}

// bytesPerOp returns the heap bytes fn allocates, divided by ops.
func bytesPerOp(ops int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
}
