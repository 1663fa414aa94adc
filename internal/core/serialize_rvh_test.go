package core

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/rules"
)

// Serialization proofs for the rvh backend: the codec records the
// remainder by Name() and Load resolves it through the registry, so every
// backend must round-trip with the backend choice intact.

// TestTableRoundTripRVH proves Save→Load equivalence with rvh serving as
// the remainder, fresh and drifted, and that the loaded engine reports the
// backend it actually rebuilt.
func TestTableRoundTripRVH(t *testing.T) {
	profiles := []string{"acl1", "fw1", "ipc1"}
	for pi, name := range profiles {
		for _, mode := range []string{"fresh", "drifted"} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				prof, err := classbench.ProfileByName(name)
				if err != nil {
					t.Fatal(err)
				}
				opts := fastOpts()
				opts.Remainder = registeredRemainder(t, "rvh")
				d := newChurnDriver(t, prof, 200, 160, opts, 8300+int64(pi))
				if got := d.e.Stats().RemainderBackend; got != "rvh" {
					t.Fatalf("built RemainderBackend = %q, want rvh", got)
				}
				if mode == "drifted" {
					// Churn ~35% so the saved image carries overlay additions
					// and a deletion skip list over the frozen rvh form.
					for d.inserts+d.deletes < 70 {
						d.step()
					}
				}
				blob := saveEngine(t, d.e)
				loaded, err := ReadEngine(bytes.NewReader(blob), nil)
				if err != nil {
					t.Fatalf("ReadEngine: %v", err)
				}
				if got := loaded.Stats().RemainderBackend; got != "rvh" {
					t.Fatalf("loaded RemainderBackend = %q, want rvh", got)
				}
				if got := loaded.remainder.Name(); got != "rvh" {
					t.Fatalf("loaded remainder Name() = %q, want rvh", got)
				}
				verifyLoadedEquivalence(t, d.e, loaded, d.mirror, d.rng, 400)

				// A second round trip re-saves identically.
				blob2 := saveEngine(t, loaded)
				if !bytes.Equal(blob, blob2) {
					t.Errorf("second save differs from first (%d vs %d bytes)", len(blob), len(blob2))
				}
			})
		}
	}
}

// TestReadEngineUnknownRVHName exercises the registry-miss error path with
// an rvh-backed table: a wrapper renames the classifier at save time, so
// the plain load must fail naming the unknown backend, and a builder
// override must recover it.
func TestReadEngineUnknownRVHName(t *testing.T) {
	prof, err := classbench.ProfileByName("acl3")
	if err != nil {
		t.Fatal(err)
	}
	d := newChurnDriver(t, prof, 120, 40, fastOpts(), 8500)
	rvhBuild, ok := RemainderBuilderFor("rvh")
	if !ok {
		t.Fatal("rvh not registered")
	}
	named := func(rs *rules.RuleSet) (rules.Classifier, error) {
		c, err := rvhBuild(rs)
		if err != nil {
			return nil, err
		}
		return renamed{c.(rules.Freezable), "rvh-experimental"}, nil
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
	} else if !strings.Contains(err.Error(), "rvh-experimental") {
		t.Fatalf("registry-miss error does not name the backend: %v", err)
	}
	loaded, err := ReadEngine(bytes.NewReader(blob), named)
	if err != nil {
		t.Fatalf("load with builder override: %v", err)
	}
	verifyLoadedEquivalence(t, e, loaded, d.mirror, d.rng, 200)
}

// goldenRVHTablePath is the checked-in rvh-backed table: codec drift that
// breaks rvh's frozen payload (boundary vectors, groups, directory) fails
// here even if the TupleMerge golden still loads.
const goldenRVHTablePath = "testdata/tables/fw1_240_rvh_v1.nm"

// TestEngineCodecGoldenRVH mirrors TestEngineCodecGolden for the rvh
// backend. REGEN_TABLE_GOLDEN=1 regenerates the file after an intentional
// format change.
func TestEngineCodecGoldenRVH(t *testing.T) {
	prof, err := classbench.ProfileByName("fw1")
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts()
	opts.Remainder = registeredRemainder(t, "rvh")
	d := newChurnDriver(t, prof, 240, 120, opts, 4242)
	for d.inserts+d.deletes < 80 {
		d.step()
	}
	if os.Getenv("REGEN_TABLE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(goldenRVHTablePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRVHTablePath, saveEngine(t, d.e), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", goldenRVHTablePath)
	}
	blob, err := os.ReadFile(goldenRVHTablePath)
	if err != nil {
		t.Fatalf("golden table missing (run with REGEN_TABLE_GOLDEN=1 to regenerate): %v", err)
	}
	loaded, err := ReadEngine(bytes.NewReader(blob), nil)
	if err != nil {
		t.Fatalf("golden rvh table no longer loads — codec format drift? %v", err)
	}
	if got := loaded.Stats().RemainderBackend; got != "rvh" {
		t.Fatalf("golden table loaded with backend %q, want rvh", got)
	}
	rng := rand.New(rand.NewSource(99))
	verifyLoadedEquivalence(t, d.e, loaded, d.mirror, rng, 400)
}
