package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/classifiers/conformance"
	"nuevomatch/internal/classifiers/linear"
	"nuevomatch/internal/rules"
)

// withCompactThreshold runs fn with the overlay compaction threshold
// lowered so tests cross it many times.
func withCompactThreshold(n int, fn func()) {
	old := overlayCompactThreshold
	overlayCompactThreshold = n
	defer func() { overlayCompactThreshold = old }()
	fn()
}

// TestOverlayConformanceAgainstLinear drives the engine through interleaved
// inserts and deletes that repeatedly trip overlay compaction, checking
// scalar and batched lookups against the linear reference classifier built
// over the live rules after every burst.
func TestOverlayConformanceAgainstLinear(t *testing.T) {
	withCompactThreshold(8, func() {
		rng := rand.New(rand.NewSource(81))
		rs := structuredRuleSet(rng, 300)
		e, err := Build(rs, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		if e.remFrozen == nil {
			t.Fatal("default TupleMerge remainder must be frozen")
		}

		live := make(map[int]rules.Rule, rs.Len())
		for i := range rs.Rules {
			live[rs.Rules[i].ID] = rs.Rules[i]
		}
		nextID := 50000
		// Priorities are drawn unique so the engine and the reference can
		// never disagree by a tie.
		for step := 0; step < 40; step++ {
			for burst := 0; burst < 10; burst++ {
				if rng.Intn(2) == 0 || len(live) < 50 {
					f := make([]rules.Range, 5)
					for d := range f {
						lo := rng.Uint32() >> 1
						f[d] = rules.Range{Lo: lo, Hi: lo + rng.Uint32()>>8}
					}
					r := rules.Rule{ID: nextID, Priority: int32(10000 + nextID), Fields: f}
					nextID++
					if err := e.Insert(r); err != nil {
						t.Fatal(err)
					}
					live[r.ID] = r
				} else {
					for id := range live {
						if err := e.Delete(id); err != nil {
							t.Fatal(err)
						}
						delete(live, id)
						break
					}
				}
			}

			ref := rules.NewRuleSet(5)
			for _, r := range live {
				ref.Add(r)
			}
			lin, err := linear.Build(ref)
			if err != nil {
				t.Fatal(err)
			}
			pkts := make([]rules.Packet, 64)
			want := make([]int, len(pkts))
			for i := range pkts {
				pkts[i] = conformance.RandomPacket(rng, ref)
				want[i] = lin.Lookup(pkts[i])
			}
			out := make([]int, len(pkts))
			e.LookupBatch(pkts, out)
			for i, p := range pkts {
				if got := e.Lookup(p); got != want[i] {
					t.Fatalf("step %d: Lookup(%v) = %d, linear = %d", step, p, got, want[i])
				}
				if out[i] != want[i] {
					t.Fatalf("step %d: LookupBatch(%v) = %d, linear = %d", step, p, out[i], want[i])
				}
			}
		}
		if e.Updates().OverlayCompactions == 0 {
			t.Fatal("test never exercised overlay compaction")
		}
	})
}

// TestOverlayDeleteThenReuseID exercises the ID-reuse corner: deleting a
// frozen remainder rule puts its ID on the skip list, and re-inserting a
// different rule under the same ID must be served from the overlay while
// the stale frozen copy stays masked.
func TestOverlayDeleteThenReuseID(t *testing.T) {
	withCompactThreshold(1<<20, func() { // never compact: keep both delta sides live
		rng := rand.New(rand.NewSource(82))
		rs := structuredRuleSet(rng, 200)
		e, err := Build(rs, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		// Pick a rule the remainder serves (not in an iSet).
		victim := -1
		for i := range rs.Rules {
			if _, in := e.inISet[rs.Rules[i].ID]; !in {
				victim = i
				break
			}
		}
		if victim < 0 {
			t.Skip("no remainder rule in this draw")
		}
		old := rs.Rules[victim]
		p := make(rules.Packet, 5)
		for d, f := range old.Fields {
			p[d] = f.Lo
		}
		if err := e.Delete(old.ID); err != nil {
			t.Fatal(err)
		}
		// Same ID, disjoint matching set, top priority.
		repl := rules.Rule{ID: old.ID, Priority: -5, Fields: []rules.Range{
			rules.ExactRange(123), rules.ExactRange(456), rules.ExactRange(7),
			rules.ExactRange(8), rules.ExactRange(9),
		}}
		if err := e.Insert(repl); err != nil {
			t.Fatal(err)
		}
		ref := rules.NewRuleSet(5)
		for i := range rs.Rules {
			if i == victim {
				ref.Add(repl)
			} else {
				ref.Add(rs.Rules[i])
			}
		}
		if got, want := e.Lookup(p), ref.MatchID(p); got != want {
			t.Fatalf("old matching set: Lookup = %d, want %d (stale frozen copy resurfaced?)", got, want)
		}
		if got := e.Lookup(rules.Packet{123, 456, 7, 8, 9}); got != repl.ID {
			t.Fatalf("new matching set: Lookup = %d, want %d", got, repl.ID)
		}
	})
}

// TestConcurrentUpdatesVsFrozenLookups hammers Lookup/LookupBatch from
// reader goroutines while the writer churns the remainder hard enough to
// cross the compaction threshold repeatedly. Under -race this checks that
// freeze/overlay publication is data-race-free and readers always see a
// consistent (frozen, overlay) pair.
func TestConcurrentUpdatesVsFrozenLookups(t *testing.T) {
	withCompactThreshold(6, func() {
		rng := rand.New(rand.NewSource(83))
		rs := structuredRuleSet(rng, 250)
		e, err := Build(rs, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		everLive := make(map[int]bool, rs.Len())
		for i := range rs.Rules {
			everLive[rs.Rules[i].ID] = true
		}
		const churnIDs = 300
		for i := 0; i < churnIDs; i++ {
			everLive[90000+i] = true
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
			}(int64(800 + g))
		}

		wrng := rand.New(rand.NewSource(84))
		inserted := make([]int, 0, churnIDs)
		next := 0
		for step := 0; step < 600; step++ {
			if next < churnIDs && (len(inserted) == 0 || wrng.Intn(2) == 0) {
				id := 90000 + next
				next++
				f := make([]rules.Range, 5)
				for d := range f {
					lo := wrng.Uint32() >> 1
					f[d] = rules.Range{Lo: lo, Hi: lo + wrng.Uint32()>>10}
				}
				if err := e.Insert(rules.Rule{ID: id, Priority: int32(wrng.Intn(1000)), Fields: f}); err != nil {
					t.Fatal(err)
				}
				inserted = append(inserted, id)
			} else {
				i := wrng.Intn(len(inserted))
				if err := e.Delete(inserted[i]); err != nil {
					t.Fatal(err)
				}
				inserted[i] = inserted[len(inserted)-1]
				inserted = inserted[:len(inserted)-1]
			}
		}
		stop.Store(true)
		wg.Wait()
		select {
		case err := <-errc:
			t.Fatal(err)
		default:
		}
		if e.Updates().OverlayCompactions == 0 {
			t.Fatal("writer never crossed the compaction threshold")
		}
	})
}

// BenchmarkOverlayCompaction times one compaction of a full overlay on a
// 20k-rule fw5 table (~5k remainder rules): the remainder's re-freeze.
// Refilling the overlay between compactions is not timed.
func BenchmarkOverlayCompaction(b *testing.B) {
	prof, err := classbench.ProfileByName("fw5")
	if err != nil {
		b.Fatal(err)
	}
	rs := classbench.Generate(prof, 20000)
	e, err := Build(rs, Options{})
	if err != nil {
		b.Fatal(err)
	}
	var victims []rules.Rule
	for _, r := range rs.Rules {
		if _, ok := e.inISet[r.ID]; !ok {
			victims = append(victims, r)
		}
		if len(victims) == overlayCompactThreshold/2 {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, r := range victims {
			if err := e.Delete(r.ID); err != nil {
				b.Fatal(err)
			}
		}
		for _, r := range victims {
			if err := e.Insert(r); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		e.mu.Lock()
		e.refreezeRemainderLocked()
		e.mu.Unlock()
	}
}
