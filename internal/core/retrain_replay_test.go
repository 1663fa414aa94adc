package core

import (
	"math/rand"
	"runtime"
	"testing"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/rules"
)

// churnJournal synthesizes a retrain journal with the churn workload's op
// mix — fresh inserts, deletes of built and journal-inserted rules, and
// delete+reinsert (modify) sequences — mirroring every op onto the linear
// reference.
func churnJournal(rng *rand.Rand, base *rules.RuleSet, mirror *rules.RuleSet, n int) []journalOp {
	journal := make([]journalOp, 0, n)
	nextID := 2_000_000
	liveAt := func(i int) *rules.Rule { return &mirror.Rules[i] }
	for len(journal) < n {
		switch x := rng.Float64(); {
		case x < 0.45: // insert a mutation of a live rule under a fresh ID
			src := *liveAt(rng.Intn(mirror.Len()))
			r := src
			r.ID = nextID
			nextID++
			r.Priority = int32(2*nextID + 1)
			r.Fields = append([]rules.Range(nil), src.Fields...)
			journal = append(journal, journalOp{rule: cloneRule(r)})
			mirror.Add(r)
		case x < 0.80: // delete a random live rule (built or journal-inserted)
			if mirror.Len() <= 32 {
				continue
			}
			i := rng.Intn(mirror.Len())
			id := liveAt(i).ID
			journal = append(journal, journalOp{del: true, id: id})
			mirror.Rules[i] = mirror.Rules[mirror.Len()-1]
			mirror.Rules = mirror.Rules[:mirror.Len()-1]
		default: // modify: delete + reinsert the same ID with new fields
			if mirror.Len() <= 32 {
				continue
			}
			i := rng.Intn(mirror.Len())
			r := *liveAt(i)
			journal = append(journal, journalOp{del: true, id: r.ID})
			r.Fields = append([]rules.Range(nil), r.Fields...)
			r.Fields[0] = rules.PrefixRange(rng.Uint32(), 24)
			journal = append(journal, journalOp{rule: cloneRule(r)})
			mirror.Rules[i] = r
		}
	}
	return journal
}

// TestBatchReplayEquivalence proves the bulk journal replay leaves the
// replacement engine in exactly the state per-op replay would have: every
// lookup agrees with a linear reference that absorbed the same ops, the
// drift counters count gross journal ops, and — the ROADMAP improvement —
// the whole replay publishes no intermediate snapshots and allocates
// O(journal + remainder), not the O(journal × remainder) of per-op
// copy-on-write.
func TestBatchReplayEquivalence(t *testing.T) {
	prof, err := classbench.ProfileByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	size, journalLen := 1500, 1200
	if testing.Short() {
		size, journalLen = 400, 300
	}
	all := classbench.Generate(prof, size)
	base := rules.NewRuleSet(all.NumFields)
	for i := 0; i < size; i++ {
		r := all.Rules[i]
		r.Priority = int32(2 * (i + 1))
		base.Add(r)
	}
	e, err := Build(base.Clone(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(55))
	mirror := base.Clone()
	journal := churnJournal(rng, base, mirror, journalLen)

	publishesBefore := e.publishes

	// Measure the replay's allocation footprint. Per-op replay re-copied the
	// sorted remainder table and the overlay per op — O(journal × remainder)
	// bytes; the bulk pass must stay well under that.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := replayJournal(e, journal); err != nil {
		t.Fatalf("replayJournal: %v", err)
	}
	runtime.ReadMemStats(&m1)
	e.mu.Lock()
	e.publishLocked() // what adoptLocked would do after a real retrain
	e.mu.Unlock()

	if got := e.publishes - publishesBefore; got != 1 {
		t.Errorf("replay published %d snapshots, want 1 (the post-replay adopt)", got)
	}
	allocated := m1.TotalAlloc - m0.TotalAlloc
	// Generous linear budget: ~32 KB per journaled op covers the remainder
	// classifier's own insert cost plus the final re-freeze, while the old
	// quadratic path at this size burned an order of magnitude more.
	if budget := uint64(journalLen)*32*1024 + 16<<20; allocated > budget {
		t.Errorf("replay allocated %d MB, budget %d MB — replay is no longer O(journal + remainder)",
			allocated>>20, budget>>20)
	}

	// Equivalence against the reference that absorbed the same journal.
	for i := 0; i < 600; i++ {
		p := make(rules.Packet, mirror.NumFields)
		if rng.Intn(4) != 0 && mirror.Len() > 0 {
			classbench.FillMatchingPacket(rng, &mirror.Rules[rng.Intn(mirror.Len())], p)
		} else {
			for d := range p {
				p[d] = rng.Uint32()
			}
		}
		if got, want := e.Lookup(p), mirror.MatchID(p); got != want {
			t.Fatalf("after replay: Lookup(%v) = %d, want %d", p, got, want)
		}
	}

	// Gross-op drift counters, as the serving engine recorded them.
	var wantIns, wantDel int
	for _, op := range journal {
		if op.del {
			wantDel++
		} else {
			wantIns++
		}
	}
	us := e.Updates()
	if us.Inserted != wantIns || us.DeletedFromISets+us.DeletedFromRemainder != wantDel {
		t.Errorf("drift counters = %+v, want %d inserts / %d deletes (gross journal ops)", us, wantIns, wantDel)
	}
}

// TestBatchReplayRejectsCorruptJournal covers the defensive error paths: a
// journal that references unknown rules or double-applies an ID must fail
// without corrupting the replacement.
func TestBatchReplayRejectsCorruptJournal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rs := structuredRuleSet(rng, 300)
	e, err := Build(rs.Clone(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := rs.Rules[0]
	r.Fields = append([]rules.Range(nil), r.Fields...)

	for name, journal := range map[string][]journalOp{
		"delete unknown":   {{del: true, id: 999_999}},
		"double delete":    {{del: true, id: rs.Rules[1].ID}, {del: true, id: rs.Rules[1].ID}},
		"duplicate insert": {{rule: cloneRule(r)}},
	} {
		if err := replayJournal(e, journal); err == nil {
			t.Errorf("%s: replay succeeded, want error", name)
		}
	}
}
