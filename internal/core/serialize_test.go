package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/rules"
)

// saveEngine serializes e and sanity-checks the byte count.
func saveEngine(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := e.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// verifyLoadedEquivalence probes the loaded engine against both the original
// engine and the linear-reference mirror on matching-biased and uniform
// packets, across the scalar and batched paths.
func verifyLoadedEquivalence(t *testing.T, orig, loaded *Engine, mirror *rules.RuleSet, rng *rand.Rand, probes int) {
	t.Helper()
	pkts := make([]rules.Packet, probes)
	for i := range pkts {
		p := make(rules.Packet, mirror.NumFields)
		if mirror.Len() > 0 && rng.Intn(4) != 0 {
			classbench.FillMatchingPacket(rng, &mirror.Rules[rng.Intn(mirror.Len())], p)
		} else {
			for d := range p {
				p[d] = rng.Uint32()
			}
		}
		pkts[i] = p
	}
	outOrig := make([]int, probes)
	outLoaded := make([]int, probes)
	orig.LookupBatch(pkts, outOrig)
	loaded.LookupBatch(pkts, outLoaded)
	for i, p := range pkts {
		want := mirror.MatchID(p)
		if got := loaded.Lookup(p); got != want {
			t.Fatalf("loaded.Lookup(%v) = %d, want %d (reference)", p, got, want)
		}
		if got := orig.Lookup(p); got != want {
			t.Fatalf("orig.Lookup(%v) = %d, want %d (reference)", p, got, want)
		}
		if outLoaded[i] != want {
			t.Fatalf("loaded.LookupBatch[%d] = %d, want %d", i, outLoaded[i], want)
		}
		if outOrig[i] != outLoaded[i] {
			t.Fatalf("batch disagreement at %d: orig %d, loaded %d", i, outOrig[i], outLoaded[i])
		}
	}
}

// TestTableRoundTripProfiles proves Save→Load equivalence on every ClassBench
// application profile, in both a freshly built state and a drifted one
// (online inserts in the overlay, deletes of both iSet and remainder rules,
// a delete skip-list present at save time). The loaded engine must answer
// every lookup exactly like the original and the linear reference, with zero
// retraining.
func TestTableRoundTripProfiles(t *testing.T) {
	profiles := classbench.Profiles()
	size, pool := 240, 200
	if testing.Short() {
		profiles = []classbench.Profile{profiles[0], profiles[5], profiles[10]}
		size, pool = 150, 120
	}
	for pi, prof := range profiles {
		for _, mode := range []string{"fresh", "drifted"} {
			t.Run(prof.Name+"/"+mode, func(t *testing.T) {
				d := newChurnDriver(t, prof, size, pool, fastOpts(), 7000+int64(pi))
				if mode == "drifted" {
					// Churn ~35% of the rule count so the saved image carries
					// overlay additions, masked deletions, and dead iSet
					// metadata.
					for d.inserts+d.deletes < size/3 {
						d.step()
					}
				}
				blob := saveEngine(t, d.e)
				loaded, err := ReadEngine(bytes.NewReader(blob), nil)
				if err != nil {
					t.Fatalf("ReadEngine: %v", err)
				}

				verifyLoadedEquivalence(t, d.e, loaded, d.mirror, d.rng, 400)

				// Bookkeeping must survive the trip: the loaded engine sees
				// the same live set, drift counters, and structure.
				uo, ul := d.e.Updates(), loaded.Updates()
				if uo != ul {
					t.Errorf("UpdateStats drifted across save/load:\n  saved  %+v\n  loaded %+v", uo, ul)
				}
				if d.e.NumISets() != loaded.NumISets() {
					t.Errorf("NumISets %d -> %d", d.e.NumISets(), loaded.NumISets())
				}
				so, sl := d.e.Stats(), loaded.Stats()
				if so.Coverage != sl.Coverage || so.RemainderSize != sl.RemainderSize ||
					so.MaxSearchDistance != sl.MaxSearchDistance {
					t.Errorf("BuildStats drifted:\n  saved  %+v\n  loaded %+v", so, sl)
				}
				if got, want := fmt.Sprint(sl.ISetSizes), fmt.Sprint(so.ISetSizes); got != want {
					t.Errorf("ISetSizes %s -> %s", want, got)
				}

				// The loaded engine is a full citizen: it takes updates and
				// a second round trip re-saves identically.
				blob2 := saveEngine(t, loaded)
				if !bytes.Equal(blob, blob2) {
					t.Errorf("second save differs from first (%d vs %d bytes)", len(blob), len(blob2))
				}
			})
		}
	}
}

// TestLoadedEngineStaysLive drives updates and a retrain through a loaded
// engine: persistence must not demote it to read-only.
func TestLoadedEngineStaysLive(t *testing.T) {
	prof, err := classbench.ProfileByName("fw2")
	if err != nil {
		t.Fatal(err)
	}
	d := newChurnDriver(t, prof, 200, 300, fastOpts(), 81)
	for d.inserts+d.deletes < 60 {
		d.step()
	}
	blob := saveEngine(t, d.e)
	loaded, err := ReadEngine(bytes.NewReader(blob), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Swap the driver onto the loaded engine and keep churning with
	// verified lookups, then retrain in place.
	d.e = loaded
	for i := 0; i < 400; i++ {
		d.step()
	}
	if _, err := loaded.Retrain(); err != nil {
		t.Fatalf("retrain on loaded engine: %v", err)
	}
	d.verifySweep(300)
}

// TestReadEngineTruncationAndCorruption feeds every truncation prefix of a
// valid table, plus systematic single-byte corruptions, through ReadEngine:
// each must fail with an error (or, for corruptions, either error or load —
// but never panic).
func TestReadEngineTruncationAndCorruption(t *testing.T) {
	prof, err := classbench.ProfileByName("acl2")
	if err != nil {
		t.Fatal(err)
	}
	d := newChurnDriver(t, prof, 120, 80, fastOpts(), 9)
	for d.inserts+d.deletes < 30 {
		d.step()
	}
	blob := saveEngine(t, d.e)

	for n := 0; n < len(blob); n++ {
		_, err := ReadEngine(bytes.NewReader(blob[:n]), nil)
		if err == nil {
			// The one admissible truncation point: cutting exactly the
			// integrity trailer leaves a well-formed trailer-less artifact,
			// which back-compat with pre-trailer files requires accepting.
			if n != len(blob)-tableTrailerLen {
				t.Fatalf("truncation at %d/%d bytes loaded without error", n, len(blob))
			}
		}
	}
	// With the CRC32-C trailer, every byte flip — payload or trailer — must
	// be rejected, and rejected without panicking.
	for off := 0; off < len(blob); off += 7 {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0xff
		if _, err := ReadEngine(bytes.NewReader(mut), nil); err == nil {
			t.Fatalf("bit flip at offset %d loaded without error (checksum not enforced)", off)
		}
	}
}

// TestCodecTrailer pins the CRC32-C integrity trailer's contract: new
// artifacts end with it, corruption anywhere is rejected before model decode,
// a stripped trailer degrades to the accepted v1 form, and garbage past the
// trailer cannot smuggle itself in.
func TestCodecTrailer(t *testing.T) {
	prof, err := classbench.ProfileByName("acl3")
	if err != nil {
		t.Fatal(err)
	}
	d := newChurnDriver(t, prof, 120, 60, fastOpts(), 33)
	for d.inserts+d.deletes < 25 {
		d.step()
	}
	blob := saveEngine(t, d.e)

	if len(blob) < tableTrailerLen {
		t.Fatalf("implausibly small table: %d bytes", len(blob))
	}
	trailer := blob[len(blob)-tableTrailerLen:]
	if [4]byte(trailer[:4]) != tableTrailerMagic {
		t.Fatalf("saved table does not end with the trailer magic: % x", trailer)
	}

	// Payload corruption must be caught by the checksum, as a checksum error
	// (not a decode error deep inside a model blob).
	mut := append([]byte(nil), blob...)
	mut[len(mut)/2] ^= 0x01
	if _, err := ReadEngine(bytes.NewReader(mut), nil); err == nil {
		t.Fatal("corrupted payload loaded without error")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted payload rejected, but not by the checksum: %v", err)
	}

	// A corrupted stored checksum is equally fatal.
	mut = append([]byte(nil), blob...)
	mut[len(mut)-1] ^= 0xff
	if _, err := ReadEngine(bytes.NewReader(mut), nil); err == nil {
		t.Fatal("corrupted trailer checksum loaded without error")
	}

	// Stripping the trailer yields a valid pre-trailer v1 artifact: it must
	// load and answer identically (backward compatibility).
	stripped, err := ReadEngine(bytes.NewReader(blob[:len(blob)-tableTrailerLen]), nil)
	if err != nil {
		t.Fatalf("trailer-less v1 artifact rejected: %v", err)
	}
	verifyLoadedEquivalence(t, d.e, stripped, d.mirror, d.rng, 200)

	// Bytes after the trailer make the whole input untrustworthy.
	if _, err := ReadEngine(bytes.NewReader(append(append([]byte(nil), blob...), 0xde, 0xad)), nil); err == nil {
		t.Fatal("trailing garbage after the trailer loaded without error")
	}
}

// TestReadEngineUnknownRemainder exercises the registry miss path and the
// builder override.
func TestReadEngineUnknownRemainder(t *testing.T) {
	prof, err := classbench.ProfileByName("ipc2")
	if err != nil {
		t.Fatal(err)
	}
	d := newChurnDriver(t, prof, 120, 40, fastOpts(), 12)
	named := func(rs *rules.RuleSet) (rules.Classifier, error) {
		c, err := fastOpts().withDefaults().Remainder(rs)
		if err != nil {
			return nil, err
		}
		return renamed{c.(rules.Freezable), "custom-remainder"}, nil
	}
	opts := fastOpts()
	opts.Remainder = named
	e, err := Build(d.mirror.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	blob := saveEngine(t, e)

	if _, err := ReadEngine(bytes.NewReader(blob), nil); err == nil {
		t.Fatal("load with unregistered remainder name must error")
	}
	loaded, err := ReadEngine(bytes.NewReader(blob), named)
	if err != nil {
		t.Fatalf("load with builder override: %v", err)
	}
	verifyLoadedEquivalence(t, e, loaded, d.mirror, d.rng, 200)
}

// renamed wraps a remainder under a different Name.
type renamed struct {
	rules.Freezable
	name string
}

func (r renamed) Name() string { return r.name }

// goldenTablePath is the checked-in serialized table CI round-trips to catch
// codec format drift: if the encoder changes shape without a version bump,
// the golden load (or its lookups) breaks.
const goldenTablePath = "testdata/tables/fw1_240_v1.nm"

func goldenEngine(t *testing.T) (*Engine, *rules.RuleSet) {
	t.Helper()
	prof, err := classbench.ProfileByName("fw1")
	if err != nil {
		t.Fatal(err)
	}
	d := newChurnDriver(t, prof, 240, 120, fastOpts(), 4242)
	for d.inserts+d.deletes < 80 {
		d.step()
	}
	return d.e, d.mirror
}

// TestEngineCodecGolden loads the checked-in table and verifies it against
// the deterministically rebuilt original. REGEN_TABLE_GOLDEN=1 regenerates
// the file after an intentional format change (bump tableFormatVersion and
// the file suffix).
func TestEngineCodecGolden(t *testing.T) {
	e, mirror := goldenEngine(t)
	if os.Getenv("REGEN_TABLE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(goldenTablePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTablePath, saveEngine(t, e), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", goldenTablePath)
	}
	blob, err := os.ReadFile(goldenTablePath)
	if err != nil {
		t.Fatalf("golden table missing (run with REGEN_TABLE_GOLDEN=1 to regenerate): %v", err)
	}
	loaded, err := ReadEngine(bytes.NewReader(blob), nil)
	if err != nil {
		t.Fatalf("golden table no longer loads — codec format drift? %v", err)
	}
	rng := rand.New(rand.NewSource(99))
	verifyLoadedEquivalence(t, e, loaded, mirror, rng, 400)
}

// FuzzReadTable proves arbitrary bytes never panic the table loader. When a
// mutation happens to load, the engine must survive lookups and a re-save.
func FuzzReadTable(f *testing.F) {
	for _, seed := range tableSeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := ReadEngine(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		p := make(rules.Packet, e.rs.NumFields)
		e.Lookup(p)
		out := make([]int, 4)
		e.LookupBatch([]rules.Packet{p, p, p, p}, out)
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			t.Fatalf("re-save of loaded table failed: %v", err)
		}
	})
}

// tableSeedCorpus generates valid serialized tables (fresh and drifted,
// several profiles, with and without iSets) as fuzz seeds.
func tableSeedCorpus() [][]byte {
	seeds := make([][]byte, 0, 8)
	add := func(e *Engine) {
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err == nil {
			seeds = append(seeds, buf.Bytes())
		}
	}
	for _, name := range []string{"acl1", "fw1", "ipc1"} {
		prof, err := classbench.ProfileByName(name)
		if err != nil {
			continue
		}
		rs := classbench.Generate(prof, 60)
		for i := range rs.Rules {
			rs.Rules[i].Priority = int32(2 * (i + 1))
		}
		e, err := Build(rs, fastOpts())
		if err != nil {
			continue
		}
		// Drift a little so seeds carry dead metadata and remainder inserts.
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 10; i++ {
			e.Delete(rs.Rules[rng.Intn(rs.Len())].ID)
		}
		for i := 0; i < 10; i++ {
			r := rs.Rules[rng.Intn(rs.Len())]
			r.ID = 10_000 + i
			r.Priority = int32(2*i + 1)
			r.Fields = append([]rules.Range(nil), r.Fields...)
			e.Insert(r)
		}
		add(e)
	}
	// A remainder-only engine (no iSets) and a tiny two-field table.
	rs := classbench.Generate(classbench.Profiles()[0], 40)
	opts := fastOpts()
	opts.MaxISets = -1
	if e, err := Build(rs, opts); err == nil {
		add(e)
	}
	tiny := rules.NewRuleSet(2)
	tiny.AddAuto(rules.PrefixRange(0x0a0a0000, 16), rules.Range{Lo: 10, Hi: 18})
	tiny.AddAuto(rules.FullRange(), rules.ExactRange(80))
	if e, err := Build(tiny, fastOpts()); err == nil {
		add(e)
	}
	// A trailer-less v1 seed: the pre-trailer form stays load-bearing for
	// backward compatibility, so the fuzzer must keep exploring it too.
	if len(seeds) > 0 && len(seeds[0]) > tableTrailerLen {
		seeds = append(seeds, seeds[0][:len(seeds[0])-tableTrailerLen])
	}
	return seeds
}

// TestRegenTableFuzzCorpus mirrors TestRegenFuzzCorpus for the table codec
// seeds: REGEN_FUZZ_CORPUS=1 writes them, otherwise their presence is
// asserted.
func TestRegenTableFuzzCorpus(t *testing.T) {
	seeds := tableSeedCorpus()
	dir := filepath.Join("testdata", "fuzz", "FuzzReadTable")
	if os.Getenv("REGEN_FUZZ_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
			path := filepath.Join(dir, fmt.Sprintf("table-seed-%02d", i))
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("wrote %d seeds to %s", len(seeds), dir)
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("seed corpus missing (run with REGEN_FUZZ_CORPUS=1 to regenerate): %v", err)
	}
	if len(entries) < len(seeds) {
		t.Errorf("%d corpus files on disk, generator produces %d (regenerate)", len(entries), len(seeds))
	}
}
