package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/rules"
)

func newSeedRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Differential fuzzing: byte inputs are decoded into rule-sets, packets, and
// update sequences, the engine is built with a fast training configuration,
// and every lookup path is compared against the linear reference. The seed
// corpus (testdata/fuzz, regenerable via TestRegenFuzzCorpus) is derived
// from the ClassBench profiles so the fuzzer starts from realistic
// ACL/FW/IPC structure instead of random noise.

// fuzzOpts exercises the full pipeline (iSets + remainder + overlay).
func fuzzOpts() Options {
	return Options{
		MaxISets:    2,
		MinCoverage: -1, // keep even tiny iSets: maximizes model-path coverage
	}
}

// fuzzReader cursors over the fuzz input; exhausted input reads as zeros so
// every byte string decodes deterministically.
type fuzzReader struct {
	data []byte
	i    int
}

func (r *fuzzReader) byte() byte {
	if r.i < len(r.data) {
		b := r.data[r.i]
		r.i++
		return b
	}
	return 0
}

func (r *fuzzReader) u32() uint32 {
	return uint32(r.byte())<<24 | uint32(r.byte())<<16 | uint32(r.byte())<<8 | uint32(r.byte())
}

func (r *fuzzReader) rem() int { return len(r.data) - r.i }

// decodeField reads one 9-byte field spec. Class 1 (lo/hi) can express any
// range, so the codec is complete: every rule a ClassBench profile generates
// round-trips exactly through encodeField.
func decodeField(r *fuzzReader) rules.Range {
	cls := r.byte()
	v := r.u32()
	w := r.u32()
	switch cls % 5 {
	case 0:
		return rules.PrefixRange(v, int(w%33))
	case 1:
		if v > w {
			v, w = w, v
		}
		return rules.Range{Lo: v, Hi: w}
	case 2:
		return rules.FullRange()
	case 3:
		return rules.ExactRange(v)
	default: // low-diversity exact: forces overlap
		return rules.ExactRange(v % 4)
	}
}

// encodeField emits a spec decodeField reads back as exactly f.
func encodeField(out []byte, f rules.Range) []byte {
	putU32 := func(out []byte, v uint32) []byte {
		return append(out, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	switch {
	case f.IsFull():
		out = append(out, 2)
		out = putU32(out, 0)
		out = putU32(out, 0)
	case f.IsExact():
		out = append(out, 3)
		out = putU32(out, f.Lo)
		out = putU32(out, 0)
	default:
		out = append(out, 1)
		out = putU32(out, f.Lo)
		out = putU32(out, f.Hi)
	}
	return out
}

const fuzzNumFields = 5

// decodeRuleSet reads a bounded rule-set: count byte then 5 fields per rule.
// Priorities are sequential (unique), so the reference match is unambiguous.
func decodeRuleSet(r *fuzzReader, maxRules int) *rules.RuleSet {
	n := 1 + int(r.byte())%maxRules
	rs := rules.NewRuleSet(fuzzNumFields)
	for i := 0; i < n; i++ {
		fields := make([]rules.Range, fuzzNumFields)
		for d := range fields {
			fields[d] = decodeField(r)
		}
		rs.AddAuto(fields...)
	}
	return rs
}

// encodeRuleSet is decodeRuleSet's inverse for corpus generation (the caller
// guarantees len(rs.Rules) fits the count byte's range).
func encodeRuleSet(out []byte, rs *rules.RuleSet, maxRules int) []byte {
	out = append(out, byte((rs.Len()-1)%maxRules))
	for i := range rs.Rules {
		for _, f := range rs.Rules[i].Fields {
			out = encodeField(out, f)
		}
	}
	return out
}

// decodePacket reads one 20-byte packet.
func decodePacket(r *fuzzReader) rules.Packet {
	p := make(rules.Packet, fuzzNumFields)
	for d := range p {
		p[d] = r.u32()
	}
	return p
}

func encodePacket(out []byte, p rules.Packet) []byte {
	for _, v := range p {
		out = append(out, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return out
}

// cornerProbes returns each rule's Lo and Hi corner packets — the boundary
// points where off-by-one validation bugs live.
func cornerProbes(rs *rules.RuleSet, cap int) []rules.Packet {
	var out []rules.Packet
	for i := range rs.Rules {
		if len(out)+2 > cap {
			break
		}
		lo := make(rules.Packet, fuzzNumFields)
		hi := make(rules.Packet, fuzzNumFields)
		for d, f := range rs.Rules[i].Fields {
			lo[d], hi[d] = f.Lo, f.Hi
		}
		out = append(out, lo, hi)
	}
	return out
}

// FuzzLookupVsReference decodes a rule-set and probe packets from the input,
// builds the engine, and asserts Lookup and LookupBatch agree with the
// linear reference on every probe — data-driven packets, rule corners, and
// the batched path over all of them.
func FuzzLookupVsReference(f *testing.F) {
	for _, seed := range lookupSeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		rs := decodeRuleSet(r, 48)
		pkts := cornerProbes(rs, 64)
		for len(pkts) < 96 && r.rem() > 0 {
			pkts = append(pkts, decodePacket(r))
		}
		e, err := Build(rs, fuzzOpts())
		if err != nil {
			t.Fatalf("build on %d decoded rules: %v", rs.Len(), err)
		}
		for _, p := range pkts {
			if got, want := e.Lookup(p), rs.MatchID(p); got != want {
				t.Fatalf("Lookup(%v) = %d, want %d (rules %d)", p, got, want, rs.Len())
			}
		}
		out := make([]int, len(pkts))
		e.LookupBatch(pkts, out)
		for i, p := range pkts {
			if want := rs.MatchID(p); out[i] != want {
				t.Fatalf("LookupBatch[%d](%v) = %d, want %d", i, p, out[i], want)
			}
		}
	})
}

// FuzzUpdateChurn decodes a base rule-set plus an update/lookup op stream
// and asserts the engine tracks a linear mirror through inserts, deletes,
// modifies, overlay compactions, and in-place retrains, on the scalar,
// one-packet batch and no-early-termination paths. Inserted and
// re-prioritized rules get priorities from two never-colliding counters
// (one beating every live rule, one losing to all), so results stay exact.
func FuzzUpdateChurn(f *testing.F) {
	for _, seed := range churnSeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		base := decodeRuleSet(r, 24)
		// Shift priorities up so the "beats everything" insert counter has
		// room below them.
		for i := range base.Rules {
			base.Rules[i].Priority += 1 << 20
		}
		e, err := Build(base, fuzzOpts())
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		mirror := base.Clone()
		nextID := 1 << 24
		hiPrio := int32(1<<20 - 1) // descending: beats all live rules
		loPrio := int32(1 << 28)   // ascending: loses to all live rules
		var probes []rules.Packet
		retrains := 0

		one, oneOut := make([]rules.Packet, 1), make([]int, 1)
		verify := func(p rules.Packet) {
			want := mirror.MatchID(p)
			if got := e.Lookup(p); got != want {
				t.Fatalf("Lookup(%v) = %d, want %d (live %d)", p, got, want, mirror.Len())
			}
			// The ablation path queries the remainder unbounded and takes
			// its winner's priority from the bound the overlay scan and the
			// frozen walk lower, so a deleted, re-added or re-prioritized
			// remainder rule must still resolve exactly.
			if got := e.LookupNoEarlyTermination(p); got != want {
				t.Fatalf("LookupNoEarlyTermination(%v) = %d, want %d (live %d)", p, got, want, mirror.Len())
			}
			one[0] = p
			e.LookupBatch(one, oneOut)
			if oneOut[0] != want {
				t.Fatalf("LookupBatch([%v]) = %d, want %d (live %d)", p, oneOut[0], want, mirror.Len())
			}
		}

		for ops := 0; r.rem() > 0 && ops < 96; ops++ {
			switch op := r.byte(); op % 8 {
			case 0, 1: // insert
				fields := make([]rules.Range, fuzzNumFields)
				for d := range fields {
					fields[d] = decodeField(r)
				}
				nr := rules.Rule{ID: nextID, Fields: fields}
				nextID++
				if op&0x10 != 0 {
					nr.Priority = hiPrio
					hiPrio--
				} else {
					nr.Priority = loPrio
					loPrio++
				}
				if err := e.Insert(nr); err != nil {
					t.Fatalf("insert %d: %v", nr.ID, err)
				}
				mirror.Add(nr)
			case 2: // delete
				if mirror.Len() == 0 {
					continue
				}
				i := int(r.byte()) % mirror.Len()
				if err := e.Delete(mirror.Rules[i].ID); err != nil {
					t.Fatalf("delete %d: %v", mirror.Rules[i].ID, err)
				}
				mirror.Rules[i] = mirror.Rules[mirror.Len()-1]
				mirror.Rules = mirror.Rules[:mirror.Len()-1]
			case 3: // modify: mutate one field, keep the ID, maybe re-prioritize
				if mirror.Len() == 0 {
					continue
				}
				i := int(r.byte()) % mirror.Len()
				mod := mirror.Rules[i]
				mod.Fields = append([]rules.Range(nil), mod.Fields...)
				mod.Fields[int(r.byte())%fuzzNumFields] = decodeField(r)
				switch op & 0x30 {
				case 0x10:
					mod.Priority = hiPrio
					hiPrio--
				case 0x20:
					mod.Priority = loPrio
					loPrio++
				}
				if err := e.Modify(mod); err != nil {
					t.Fatalf("modify %d: %v", mod.ID, err)
				}
				mirror.Rules[i] = mod
			case 4, 5: // verified lookup
				p := decodePacket(r)
				if len(probes) < 64 {
					probes = append(probes, p)
				}
				verify(p)
			case 6: // verified lookups on live-rule corners
				for _, p := range cornerProbes(mirror, 8) {
					verify(p)
				}
			default: // in-place retrain (bounded: training dominates cost)
				if retrains < 2 && mirror.Len() > 0 {
					retrains++
					if _, err := e.Retrain(); err != nil {
						t.Fatalf("retrain: %v", err)
					}
				}
			}
		}

		if got := e.Updates().LiveRules; got != mirror.Len() {
			t.Fatalf("LiveRules = %d, mirror has %d", got, mirror.Len())
		}
		probes = append(probes, cornerProbes(mirror, 32)...)
		for _, p := range probes {
			verify(p)
		}
		if len(probes) > 0 {
			out := make([]int, len(probes))
			e.LookupBatch(probes, out)
			for i, p := range probes {
				if want := mirror.MatchID(p); out[i] != want {
					t.Fatalf("LookupBatch[%d] = %d, want %d", i, out[i], want)
				}
			}
		}
	})
}

// FuzzRemainderDifferential decodes a rule-set plus an update/lookup op
// stream and drives every registered Freezable remainder backend through it
// in lockstep, diffing the live lookups (unbounded, bounded, batched) and
// the periodically re-frozen forms (scalar, batch, skip-list) against the
// linear mirror. Any divergence between a backend and the reference — or
// between two backends, since both are held to the same mirror — fails.
func FuzzRemainderDifferential(f *testing.F) {
	for _, seed := range remainderSeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		base := decodeRuleSet(r, 32)
		// Shift priorities up so the "beats everything" insert counter has
		// room below them.
		for i := range base.Rules {
			base.Rules[i].Priority += 1 << 20
		}

		type backend struct {
			name string
			fz   rules.Freezable
			up   rules.Updatable
			bc   rules.BoundedClassifier
		}
		var backends []backend
		for _, name := range updateBackends {
			b, ok := RemainderBuilderFor(name)
			if !ok {
				t.Fatalf("backend %q has no builder", name)
			}
			cls, err := b(base)
			if err != nil {
				t.Fatalf("backend %q: build on %d rules: %v", name, base.Len(), err)
			}
			backends = append(backends, backend{
				name: name,
				fz:   cls.(rules.Freezable),
				up:   cls.(rules.Updatable),
				bc:   cls.(rules.BoundedClassifier),
			})
		}
		if len(backends) < 2 {
			t.Fatalf("differential fuzz needs >= 2 backends, got %d", len(backends))
		}
		mirror := base.Clone()

		// refBound is the linear reference for bounded lookups: the best
		// match with Priority strictly below bound.
		refBound := func(p rules.Packet, bound int32) int {
			best, bestPrio := rules.NoMatch, bound
			for i := range mirror.Rules {
				if mr := &mirror.Rules[i]; mr.Priority < bestPrio && mr.Matches(p) {
					best, bestPrio = mr.ID, mr.Priority
				}
			}
			return best
		}
		verify := func(p rules.Packet, bound int32) {
			want := refBound(p, bound)
			for _, b := range backends {
				if got := b.bc.LookupWithBound(p, bound); got != want {
					t.Fatalf("%s: LookupWithBound(%v, %d) = %d, want %d (live %d)",
						b.name, p, bound, got, want, mirror.Len())
				}
			}
		}
		var probes []rules.Packet
		frozenSweep := func() {
			pkts := append(append([]rules.Packet(nil), probes...), cornerProbes(mirror, 16)...)
			if len(pkts) == 0 {
				return
			}
			bounds := make([]int32, len(pkts))
			out := make([]int, len(pkts))
			for _, b := range backends {
				fr := b.fz.Freeze()
				for i, p := range pkts {
					if got, want := fr.Lookup(p, 1<<30, nil), refBound(p, 1<<30); got != want {
						t.Fatalf("%s: frozen Lookup[%d] = %d, want %d", b.name, i, got, want)
					}
					bounds[i] = 1 << 30
					out[i] = -7 // sentinel: untouched unless improved
				}
				fr.LookupBatch(pkts, bounds, nil, out)
				for i, p := range pkts {
					want := refBound(p, 1<<30)
					if want < 0 {
						if out[i] != -7 {
							t.Fatalf("%s: frozen batch wrote %d on a no-match packet", b.name, out[i])
						}
					} else if out[i] != want {
						t.Fatalf("%s: frozen batch[%d] = %d, want %d", b.name, i, out[i], want)
					}
				}
			}
		}

		nextID := 1 << 24
		hiPrio := int32(1<<20 - 1) // descending: beats all live rules
		loPrio := int32(1 << 28)   // ascending: loses to all live rules
		for ops := 0; r.rem() > 0 && ops < 64; ops++ {
			switch op := r.byte(); op % 8 {
			case 0, 1: // insert into every backend
				fields := make([]rules.Range, fuzzNumFields)
				for d := range fields {
					fields[d] = decodeField(r)
				}
				nr := rules.Rule{ID: nextID, Fields: fields}
				nextID++
				if op&0x10 != 0 {
					nr.Priority = hiPrio
					hiPrio--
				} else {
					nr.Priority = loPrio
					loPrio++
				}
				for _, b := range backends {
					if err := b.up.Insert(nr); err != nil {
						t.Fatalf("%s: insert %d: %v", b.name, nr.ID, err)
					}
				}
				mirror.Add(nr)
			case 2: // delete from every backend
				if mirror.Len() == 0 {
					continue
				}
				i := int(r.byte()) % mirror.Len()
				id := mirror.Rules[i].ID
				for _, b := range backends {
					if err := b.up.Delete(id); err != nil {
						t.Fatalf("%s: delete %d: %v", b.name, id, err)
					}
				}
				mirror.Rules[i] = mirror.Rules[mirror.Len()-1]
				mirror.Rules = mirror.Rules[:mirror.Len()-1]
			case 3, 4: // verified lookup, unbounded and bounded
				p := decodePacket(r)
				if len(probes) < 48 {
					probes = append(probes, p)
				}
				verify(p, 1<<30)
				if mirror.Len() > 0 {
					// Bound at a live rule's priority + 1: that rule can still
					// win, everything at or above it is pruned.
					j := int(r.byte()) % mirror.Len()
					verify(p, mirror.Rules[j].Priority+1)
				}
			case 5: // verified lookups on live-rule corners
				for _, p := range cornerProbes(mirror, 8) {
					verify(p, 1<<30)
				}
			case 6: // batched differential of a fresh freeze over collected probes
				if len(probes) == 0 {
					continue
				}
				bounds := make([]int32, len(probes))
				out := make([]int, len(probes))
				for _, b := range backends {
					for i := range probes {
						bounds[i], out[i] = 1<<30, rules.NoMatch
					}
					b.fz.Freeze().LookupBatch(probes, bounds, nil, out)
					for i, p := range probes {
						if want := refBound(p, 1<<30); out[i] != want {
							t.Fatalf("%s: frozen batch[%d] = %d, want %d", b.name, i, out[i], want)
						}
					}
				}
			default: // freeze every backend and sweep the frozen contracts
				frozenSweep()
			}
		}
		frozenSweep()

		// Skip-list differential: freeze, then delete a few live rules and
		// check the frozen forms answer like the post-delete mirror when the
		// deleted IDs ride in the sorted skip list.
		if mirror.Len() > 2 {
			frozen := make([]rules.FrozenClassifier, len(backends))
			for i, b := range backends {
				frozen[i] = b.fz.Freeze()
			}
			var skip []int
			for i := 0; i < 3 && mirror.Len() > 0; i++ {
				j := int(r.byte()) % mirror.Len()
				id := mirror.Rules[j].ID
				at := sort.SearchInts(skip, id)
				skip = append(skip, 0)
				copy(skip[at+1:], skip[at:])
				skip[at] = id
				mirror.Rules[j] = mirror.Rules[mirror.Len()-1]
				mirror.Rules = mirror.Rules[:mirror.Len()-1]
			}
			pkts := append(append([]rules.Packet(nil), probes...), cornerProbes(mirror, 16)...)
			for _, p := range pkts {
				want := refBound(p, 1<<30)
				for i, b := range backends {
					if got := frozen[i].Lookup(p, 1<<30, skip); got != want {
						t.Fatalf("%s: frozen+skip Lookup(%v) = %d, want %d", b.name, p, got, want)
					}
				}
			}
		}
	})
}

// --- ClassBench-derived seed corpus --------------------------------------

// lookupSeedCorpus encodes small slices of each ClassBench application
// family (plus degenerate shapes) into FuzzLookupVsReference inputs.
func lookupSeedCorpus() [][]byte {
	var seeds [][]byte
	for _, name := range []string{"acl1", "acl3", "fw1", "fw4", "ipc1", "ipc2"} {
		prof, err := classbench.ProfileByName(name)
		if err != nil {
			panic(err)
		}
		rs := classbench.Generate(prof, 24)
		var b []byte
		b = encodeRuleSet(b, rs, 48)
		for i := 0; i < 8; i++ {
			b = encodePacket(b, classbench.MatchingPacket(newSeedRand(int64(i)), &rs.Rules[i%rs.Len()]))
		}
		seeds = append(seeds, b)
	}
	// Degenerate: one wildcard rule, identical overlapping rules.
	wild := rules.NewRuleSet(fuzzNumFields)
	wild.AddAuto(rules.FullRange(), rules.FullRange(), rules.FullRange(), rules.FullRange(), rules.FullRange())
	seeds = append(seeds, encodeRuleSet(nil, wild, 48))
	same := rules.NewRuleSet(fuzzNumFields)
	for i := 0; i < 6; i++ {
		same.AddAuto(rules.ExactRange(5), rules.Range{Lo: 10, Hi: 20}, rules.FullRange(), rules.ExactRange(80), rules.ExactRange(6))
	}
	seeds = append(seeds, encodeRuleSet(nil, same, 48))
	return seeds
}

// churnSeedCorpus encodes a ClassBench base set followed by an op stream
// exercising insert/delete/modify/lookup/retrain against profile-shaped
// rules.
func churnSeedCorpus() [][]byte {
	var seeds [][]byte
	for _, name := range []string{"acl2", "fw2", "ipc1"} {
		prof, err := classbench.ProfileByName(name)
		if err != nil {
			panic(err)
		}
		rs := classbench.Generate(prof, 12)
		extra := classbench.Generate(prof, 20)
		var b []byte
		b = encodeRuleSet(b, rs, 24)
		rng := newSeedRand(prof.Seed)
		for i := 12; i < 20; i++ {
			switch i % 4 {
			case 0: // high-priority insert
				b = append(b, 0x10)
				for _, f := range extra.Rules[i].Fields {
					b = encodeField(b, f)
				}
			case 1: // delete
				b = append(b, 2, byte(i))
			case 2: // verified lookup on a matching packet
				b = append(b, 4)
				b = encodePacket(b, classbench.MatchingPacket(rng, &rs.Rules[i%rs.Len()]))
			default: // corner sweep, then retrain
				b = append(b, 6, 7)
			}
		}
		// Re-prioritizing modifies (one to the top, one to the bottom),
		// each followed by a corner sweep.
		for k, op := range []byte{3 | 0x10, 3 | 0x20} {
			b = append(b, op, byte(k), byte(k))
			b = encodeField(b, extra.Rules[k].Fields[k])
			b = append(b, 6)
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// remainderSeedCorpus encodes a ClassBench base set followed by an op
// stream that hits every FuzzRemainderDifferential op class: inserts at
// both priority extremes, deletes, bounded lookups, corner sweeps, live
// batch differentials, and re-freezes.
func remainderSeedCorpus() [][]byte {
	var seeds [][]byte
	for _, name := range []string{"acl1", "fw3", "ipc2"} {
		prof, err := classbench.ProfileByName(name)
		if err != nil {
			panic(err)
		}
		rs := classbench.Generate(prof, 16)
		extra := classbench.Generate(prof, 28)
		var b []byte
		b = encodeRuleSet(b, rs, 32)
		rng := newSeedRand(prof.Seed + 1)
		for i := 16; i < 28; i++ {
			switch i % 6 {
			case 0: // high-priority insert
				b = append(b, 0x10)
				for _, f := range extra.Rules[i].Fields {
					b = encodeField(b, f)
				}
			case 1: // low-priority insert
				b = append(b, 1)
				for _, f := range extra.Rules[i].Fields {
					b = encodeField(b, f)
				}
			case 2: // delete
				b = append(b, 2, byte(i))
			case 3: // bounded lookup on a matching packet
				b = append(b, 3)
				b = encodePacket(b, classbench.MatchingPacket(rng, &rs.Rules[i%rs.Len()]))
				b = append(b, byte(i)) // bound: a live rule's priority
			case 4: // corner sweep, then live batch differential
				b = append(b, 5, 6)
			default: // freeze + frozen sweep
				b = append(b, 7)
			}
		}
		seeds = append(seeds, b)
	}
	// Degenerate: a single wildcard rule plus deletes that empty the set.
	wild := rules.NewRuleSet(fuzzNumFields)
	wild.AddAuto(rules.FullRange(), rules.FullRange(), rules.FullRange(), rules.FullRange(), rules.FullRange())
	b := encodeRuleSet(nil, wild, 32)
	b = append(b, 5, 7, 2, 0, 7)
	seeds = append(seeds, b)
	return seeds
}

// TestRegenFuzzCorpus writes the ClassBench-derived seeds into
// testdata/fuzz in Go's corpus file format. It only runs when
// REGEN_FUZZ_CORPUS=1; the checked-in files are asserted present (and
// decodable) otherwise.
func TestRegenFuzzCorpus(t *testing.T) {
	targets := map[string][][]byte{
		"FuzzLookupVsReference":     lookupSeedCorpus(),
		"FuzzUpdateChurn":           churnSeedCorpus(),
		"FuzzRemainderDifferential": remainderSeedCorpus(),
	}
	if os.Getenv("REGEN_FUZZ_CORPUS") == "1" {
		for name, seeds := range targets {
			dir := filepath.Join("testdata", "fuzz", name)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for i, seed := range seeds {
				body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
				path := filepath.Join(dir, fmt.Sprintf("classbench-seed-%02d", i))
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("wrote %d seeds to %s", len(seeds), dir)
		}
		return
	}
	for name, seeds := range targets {
		dir := filepath.Join("testdata", "fuzz", name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("seed corpus missing (run with REGEN_FUZZ_CORPUS=1 to regenerate): %v", err)
		}
		if len(entries) < len(seeds) {
			t.Errorf("%s: %d corpus files on disk, generator produces %d (regenerate)", name, len(entries), len(seeds))
		}
	}
}
