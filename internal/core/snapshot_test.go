package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/classifiers/conformance"
	"nuevomatch/internal/rules"
)

// TestLookupBatchMatchesLookup asserts the batched path agrees with
// per-packet Lookup on a ClassBench-style rule-set, including batch sizes
// that do not divide the chunk width.
func TestLookupBatchMatchesLookup(t *testing.T) {
	p, err := classbench.ProfileByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	rs := classbench.Generate(p, 2000)
	e, err := Build(rs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 63, 64, 65, 1000} {
		pkts := make([]rules.Packet, n)
		for i := range pkts {
			if i%2 == 0 {
				pkts[i] = classbench.MatchingPacket(rng, &rs.Rules[rng.Intn(rs.Len())])
			} else {
				pkts[i] = conformance.RandomPacket(rng, rs)
			}
		}
		out := make([]int, n)
		e.LookupBatch(pkts, out)
		for i, pkt := range pkts {
			if want := e.Lookup(pkt); out[i] != want {
				t.Fatalf("n=%d: batch[%d] = %d, Lookup = %d", n, i, out[i], want)
			}
		}
		// Ground truth as well, not just self-agreement (equal-priority
		// ties may resolve differently between engine and reference).
		for i, pkt := range pkts {
			want := rs.MatchID(pkt)
			if out[i] == want {
				continue
			}
			gp, gok := prioIn(rs, out[i])
			wp, wok := prioIn(rs, want)
			if !gok || !wok || gp != wp {
				t.Fatalf("n=%d: batch[%d] = %d, reference = %d", n, i, out[i], want)
			}
		}
	}
}

// TestLookupBatchAfterUpdates asserts batch/scalar agreement on a drifted
// engine (inserts into the remainder plus iSet deletions).
func TestLookupBatchAfterUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	rs := structuredRuleSet(rng, 300)
	e, err := Build(rs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		f := make([]rules.Range, 5)
		for d := range f {
			lo := rng.Uint32() >> 1
			f[d] = rules.Range{Lo: lo, Hi: lo + rng.Uint32()>>8}
		}
		if err := e.Insert(rules.Rule{ID: 50000 + i, Priority: int32(rng.Intn(500)), Fields: f}); err != nil {
			t.Fatal(err)
		}
	}
	deleted := 0
	for id := range e.inISet {
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
		if deleted++; deleted == 20 {
			break
		}
	}
	pkts := make([]rules.Packet, 777)
	for i := range pkts {
		pkts[i] = conformance.RandomPacket(rng, rs)
	}
	out := make([]int, len(pkts))
	e.LookupBatch(pkts, out)
	for i, pkt := range pkts {
		if want := e.Lookup(pkt); out[i] != want {
			t.Fatalf("batch[%d] = %d, Lookup = %d", i, out[i], want)
		}
	}
}

// TestConcurrentLookupsRacingUpdates hammers the lock-free read path from
// several goroutines while a writer inserts, deletes and re-inserts rules.
// Run under -race this checks the RCU publication discipline: readers must
// never observe torn state, and every answer must be a rule that was live at
// some point during the run (or -1).
func TestConcurrentLookupsRacingUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	rs := structuredRuleSet(rng, 300)
	e, err := Build(rs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Any ID ever live during the test: built rules plus the writer's range.
	everLive := make(map[int]bool, rs.Len())
	for i := range rs.Rules {
		everLive[rs.Rules[i].ID] = true
	}
	const writerIDs = 200
	for i := 0; i < writerIDs; i++ {
		everLive[70000+i] = true
	}

	pkts := make([]rules.Packet, 256)
	for i := range pkts {
		pkts[i] = conformance.RandomPacket(rng, rs)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			out := make([]int, 64)
			for !stop.Load() {
				if r.Intn(2) == 0 {
					p := pkts[r.Intn(len(pkts))]
					if id := e.Lookup(p); id >= 0 && !everLive[id] {
						select {
						case errc <- fmt.Errorf("Lookup returned unknown ID %d", id):
						default:
						}
						return
					}
				} else {
					off := r.Intn(len(pkts) - 64)
					e.LookupBatch(pkts[off:off+64], out)
					for _, id := range out {
						if id >= 0 && !everLive[id] {
							select {
							case errc <- fmt.Errorf("LookupBatch returned unknown ID %d", id):
							default:
							}
							return
						}
					}
				}
			}
		}(int64(100 + g))
	}

	// Writer: churn inserted rules and delete some built iSet rules.
	wrng := rand.New(rand.NewSource(34))
	inserted := make([]int, 0, writerIDs)
	nextID := 0
	for step := 0; step < 400; step++ {
		switch {
		case nextID < writerIDs && wrng.Intn(2) == 0:
			id := 70000 + nextID
			nextID++
			f := make([]rules.Range, 5)
			for d := range f {
				lo := wrng.Uint32() >> 1
				f[d] = rules.Range{Lo: lo, Hi: lo + wrng.Uint32()>>10}
			}
			if err := e.Insert(rules.Rule{ID: id, Priority: int32(wrng.Intn(1000)), Fields: f}); err != nil {
				t.Fatal(err)
			}
			inserted = append(inserted, id)
		case len(inserted) > 0:
			i := wrng.Intn(len(inserted))
			if err := e.Delete(inserted[i]); err != nil {
				t.Fatal(err)
			}
			inserted = append(inserted[:i], inserted[i+1:]...)
		}
		if step%40 == 7 {
			// Delete one still-live iSet rule (copy-on-write meta path).
			e.mu.Lock()
			var victim = -1
			for id := range e.inISet {
				victim = id
				break
			}
			e.mu.Unlock()
			if victim >= 0 {
				if err := e.Delete(victim); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Quiesced: the engine must agree with the reference over the live set.
	ref := e.LiveRuleSet()
	for i := 0; i < 1000; i++ {
		p := conformance.RandomPacket(rng, ref)
		got, want := e.Lookup(p), ref.MatchID(p)
		if got != want {
			gp, gok := prioIn(ref, got)
			wp, wok := prioIn(ref, want)
			if !gok || !wok || gp != wp { // equal-priority ties allowed
				t.Fatalf("quiesced Lookup = %d, reference = %d", got, want)
			}
		}
	}
}

func prioIn(rs *rules.RuleSet, id int) (int32, bool) {
	for i := range rs.Rules {
		if rs.Rules[i].ID == id {
			return rs.Rules[i].Priority, true
		}
	}
	return 0, false
}

// TestOptionsSentinels covers the explicit negative sentinels: MaxISets < 0
// disables iSets, MinCoverage < 0 disables coverage filtering.
func TestOptionsSentinels(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	rs := structuredRuleSet(rng, 120)

	opts := fastOpts()
	opts.MaxISets = -1
	e, err := Build(rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumISets() != 0 {
		t.Fatalf("MaxISets = -1: NumISets = %d, want 0", e.NumISets())
	}
	if e.Stats().RemainderSize != rs.Len() {
		t.Fatalf("MaxISets = -1: RemainderSize = %d, want %d", e.Stats().RemainderSize, rs.Len())
	}
	for i := 0; i < 500; i++ {
		p := conformance.RandomPacket(rng, rs)
		if got, want := e.Lookup(p), rs.MatchID(p); got != want {
			t.Fatalf("remainder-only Lookup = %d, want %d", got, want)
		}
	}

	// A rebuild must preserve the sentinel (withDefaults must not turn the
	// resolved value back into a default).
	e2, err := Build(e.LiveRuleSet(), e.opts)
	if err != nil {
		t.Fatal(err)
	}
	if e2.NumISets() != 0 {
		t.Fatalf("rebuilt with MaxISets = -1: NumISets = %d, want 0", e2.NumISets())
	}

	// MinCoverage < 0 keeps even tiny iSets that the low-diversity set
	// would otherwise discard under a 25% threshold.
	low := rules.NewRuleSet(2)
	for i := 0; i < 40; i++ {
		low.AddAuto(rules.ExactRange(uint32(i%2)), rules.FullRange())
	}
	lopts := fastOpts()
	lopts.MinCoverage = -1
	le, err := Build(low, lopts)
	if err != nil {
		t.Fatal(err)
	}
	if le.NumISets() == 0 {
		t.Fatal("MinCoverage = -1 must keep small iSets")
	}
	for i := 0; i < 500; i++ {
		p := conformance.RandomPacket(rng, low)
		if got, want := le.Lookup(p), low.MatchID(p); got != want {
			t.Fatalf("MinCoverage = -1 Lookup = %d, want %d", got, want)
		}
	}
}
