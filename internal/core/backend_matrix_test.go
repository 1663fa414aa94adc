package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"nuevomatch/internal/classifiers/conformance"
	"nuevomatch/internal/classifiers/linear"
	"nuevomatch/internal/rules"
)

// This file is the backend-differential matrix: every proof suite in it
// iterates over updateBackends, the registered remainders that take online
// updates, so the frozen-form contracts (live equivalence, skip-list
// masking, detachment, batch semantics) and the engine-level overlay
// machinery are proven per backend, not once for TupleMerge and assumed
// for the rest.

// updateBackends are the registered remainder backends that take online
// updates.
var updateBackends = []string{"tuplemerge", "rvh"}

// buildFreezableBackend resolves a registered backend by name and asserts
// the full contract the engine relies on: Freezable for snapshot
// compilation, Updatable for the online path, BoundedClassifier for the
// live reference the frozen form is checked against.
func buildFreezableBackend(t *testing.T, name string, rs *rules.RuleSet) (rules.Freezable, rules.Updatable, rules.BoundedClassifier) {
	t.Helper()
	b, ok := RemainderBuilderFor(name)
	if !ok {
		t.Fatalf("backend %q has no registered builder", name)
	}
	cls, err := b(rs)
	if err != nil {
		t.Fatalf("backend %q: build: %v", name, err)
	}
	if cls.Name() != name {
		t.Fatalf("backend registered as %q reports Name() = %q", name, cls.Name())
	}
	fz, ok := cls.(rules.Freezable)
	if !ok {
		t.Fatalf("backend %q does not implement rules.Freezable", name)
	}
	up, ok := cls.(rules.Updatable)
	if !ok {
		t.Fatalf("backend %q does not implement rules.Updatable", name)
	}
	bc, ok := cls.(rules.BoundedClassifier)
	if !ok {
		t.Fatalf("backend %q does not implement rules.BoundedClassifier", name)
	}
	return fz, up, bc
}

// forEachBackend runs fn once per update backend as a subtest.
func forEachBackend(t *testing.T, fn func(t *testing.T, name string)) {
	for _, name := range updateBackends {
		t.Run(name, func(t *testing.T) { fn(t, name) })
	}
}

// registeredRemainder resolves a registered remainder backend by name.
func registeredRemainder(t testing.TB, name string) rules.Builder {
	t.Helper()
	b, ok := RemainderBuilderFor(name)
	if !ok {
		t.Fatalf("no remainder backend registered as %q", name)
	}
	return b
}

// TestBackendRegistryLists pins the core registry contents: the update
// backends resolve by name, and names of removed remainders do not.
func TestBackendRegistryLists(t *testing.T) {
	for _, name := range updateBackends {
		if _, ok := RemainderBuilderFor(name); !ok {
			t.Fatalf("backend %q is not registered", name)
		}
	}
	for _, name := range []string{"auto", "tss", "linear"} {
		if _, ok := RemainderBuilderFor(name); ok {
			t.Fatalf("removed remainder %q still resolves", name)
		}
	}
}

// TestBackendFrozenAgreesWithLive is the parameterized form of the
// per-TupleMerge frozen-vs-live equivalence suite: the compiled form must
// answer exactly like the live classifier across random early-termination
// bounds, for every registered backend.
func TestBackendFrozenAgreesWithLive(t *testing.T) {
	forEachBackend(t, func(t *testing.T, name string) {
		rng := rand.New(rand.NewSource(171))
		rs := structuredRuleSet(rng, 800)
		fz, _, bc := buildFreezableBackend(t, name, rs)
		f := fz.Freeze()
		if f.Len() != rs.Len() {
			t.Fatalf("frozen Len = %d, rules = %d", f.Len(), rs.Len())
		}
		if f.MemoryFootprint() <= 0 {
			t.Fatal("frozen MemoryFootprint must be positive")
		}
		for i := 0; i < 4000; i++ {
			p := conformance.RandomPacket(rng, rs)
			bound := int32(math.MaxInt32)
			if rng.Intn(3) == 0 {
				bound = int32(rng.Intn(rs.Len() + 1))
			}
			got := f.Lookup(p, bound, nil)
			want := bc.LookupWithBound(p, bound)
			if got != want {
				t.Fatalf("packet %v bound %d: frozen %d, live %d", p, bound, got, want)
			}
		}
	})
}

// TestBackendFrozenSkipMasksDeletedRules checks per backend that the sorted
// skip list makes the frozen form answer exactly like a live classifier
// with those rules actually deleted — including surfacing buried
// lower-priority matches.
func TestBackendFrozenSkipMasksDeletedRules(t *testing.T) {
	forEachBackend(t, func(t *testing.T, name string) {
		rng := rand.New(rand.NewSource(172))
		rs := structuredRuleSet(rng, 600)
		fz, up, _ := buildFreezableBackend(t, name, rs)
		f := fz.Freeze()

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
			if err := up.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4000; i++ {
			p := conformance.RandomPacket(rng, rs)
			got := f.Lookup(p, math.MaxInt32, skip)
			want := fz.Lookup(p)
			if got != want {
				t.Fatalf("packet %v: frozen+skip %d, live-after-delete %d", p, got, want)
			}
		}
	})
}

// TestBackendFrozenIsDetached verifies per backend that Freeze snapshots
// the contents: updates to the live classifier after the freeze must not
// leak into the frozen form.
func TestBackendFrozenIsDetached(t *testing.T) {
	forEachBackend(t, func(t *testing.T, name string) {
		rng := rand.New(rand.NewSource(173))
		rs := structuredRuleSet(rng, 200)
		fz, up, _ := buildFreezableBackend(t, name, rs)
		f := fz.Freeze()

		pkts := make([]rules.Packet, 500)
		want := make([]int, len(pkts))
		for i := range pkts {
			pkts[i] = conformance.RandomPacket(rng, rs)
			want[i] = fz.Lookup(pkts[i])
		}
		for i := 0; i < 100; i++ {
			_ = up.Delete(rs.Rules[i].ID)
		}
		wild := rules.Rule{ID: 999999, Priority: -1, Fields: []rules.Range{
			rules.FullRange(), rules.FullRange(), rules.FullRange(),
			rules.FullRange(), rules.FullRange(),
		}}
		if err := up.Insert(wild); err != nil {
			t.Fatal(err)
		}
		for i, p := range pkts {
			if got := f.Lookup(p, math.MaxInt32, nil); got != want[i] {
				t.Fatalf("frozen answer changed after live churn: %d != %d", got, want[i])
			}
		}
	})
}

// TestBackendFrozenBatchAgreesWithScalar cross-checks each backend's batch
// walk against per-packet frozen lookups, including the in-place bounds
// tightening and untouched-entry contract (-7 sentinel).
func TestBackendFrozenBatchAgreesWithScalar(t *testing.T) {
	forEachBackend(t, func(t *testing.T, name string) {
		rng := rand.New(rand.NewSource(174))
		rs := structuredRuleSet(rng, 700)
		fz, _, _ := buildFreezableBackend(t, name, rs)
		f := fz.Freeze()

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
				pkts[i] = conformance.RandomPacket(rng, rs)
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
	})
}

// TestBackendFrozenEmpty covers each backend's degenerate frozen forms:
// freezing an empty classifier and freezing after deleting everything.
func TestBackendFrozenEmpty(t *testing.T) {
	forEachBackend(t, func(t *testing.T, name string) {
		fz, _, _ := buildFreezableBackend(t, name, rules.NewRuleSet(5))
		f := fz.Freeze()
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

		rng := rand.New(rand.NewSource(175))
		rs := structuredRuleSet(rng, 50)
		fz2, up2, _ := buildFreezableBackend(t, name, rs)
		for i := range rs.Rules {
			if err := up2.Delete(rs.Rules[i].ID); err != nil {
				t.Fatal(err)
			}
		}
		f2 := fz2.Freeze()
		if f2.Len() != 0 {
			t.Fatalf("emptied frozen Len = %d", f2.Len())
		}
		if got := f2.Lookup(p, math.MaxInt32, nil); got != rules.NoMatch {
			t.Fatalf("emptied frozen Lookup = %d", got)
		}
	})
}

// TestBackendOverlayConformance is the engine-level overlay-compaction
// suite parameterized by backend: interleaved inserts and deletes that
// repeatedly trip overlay compaction, with scalar and batched lookups
// checked against the linear reference after every burst. Each backend
// serves as the engine's remainder, resolved through the registry.
func TestBackendOverlayConformance(t *testing.T) {
	forEachBackend(t, func(t *testing.T, name string) {
		withCompactThreshold(8, func() {
			rng := rand.New(rand.NewSource(181))
			rs := structuredRuleSet(rng, 300)
			opts := fastOpts()
			opts.Remainder = registeredRemainder(t, name)
			e, err := Build(rs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if e.remFrozen == nil {
				t.Fatalf("%s remainder must be frozen into the snapshot", name)
			}
			if got := e.Stats().RemainderBackend; got != name {
				t.Fatalf("BuildStats.RemainderBackend = %q, want %q", got, name)
			}

			live := make(map[int]rules.Rule, rs.Len())
			for i := range rs.Rules {
				live[rs.Rules[i].ID] = rs.Rules[i]
			}
			nextID := 50000
			for step := 0; step < 25; step++ {
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
	})
}
