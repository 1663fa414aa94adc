package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// FsckGeneration is one generation's verification result.
type FsckGeneration struct {
	// Name is the generation directory name (or "." for a legacy flat
	// layout verified in place).
	Name string
	// Intact reports whether the generation loads completely: manifest
	// valid, every shard table passing its CRC and full decode, the rules
	// artifact (when referenced) valid, and the replication invariant
	// holding.
	Intact bool
	// Shards is the manifest's shard count (0 when the manifest itself is
	// unreadable).
	Shards int
	// Problems lists what verification found, empty when Intact.
	Problems []string
}

// FsckReport is the result of FsckClusterDir.
type FsckReport struct {
	// Dir is the cluster directory checked.
	Dir string
	// CurrentBefore is what CURRENT named when fsck started ("" when
	// absent); CurrentAfter what it names when fsck finished. They differ
	// only in repair mode.
	CurrentBefore, CurrentAfter string
	// Generations holds one entry per generation found, oldest first.
	Generations []FsckGeneration
	// Removed lists debris deleted in repair mode: torn staging
	// directories and broken generations.
	Removed []string
	// RepairedCurrent reports that repair rewrote the CURRENT pointer.
	RepairedCurrent bool

	hasDebris bool // torn staging dirs observed (before any repair)
}

// Healthy reports whether the directory needs no repair: CURRENT names an
// intact generation and no debris is present.
func (r *FsckReport) Healthy() bool {
	if r.CurrentBefore == "" {
		// Legacy flat layout: healthy iff the in-place check passed.
		return len(r.Generations) == 1 && r.Generations[0].Name == "." && r.Generations[0].Intact
	}
	for _, g := range r.Generations {
		if g.Name == r.CurrentBefore {
			return g.Intact && len(r.Removed) == 0 && !r.hasDebris
		}
	}
	return false
}

// verifyClusterGen fully verifies one generation directory through the
// loader LoadClusterDir uses, with no quarantine fallback: the manifest,
// every shard through ReadEngine (CRC + full decode), the rules artifact
// when referenced, and then the replication invariant, which a swapped or
// stale shard file breaks while passing its own CRC.
func verifyClusterGen(gdir string) FsckGeneration {
	g := FsckGeneration{Name: filepath.Base(gdir)}
	gen, err := readClusterGen(gdir, nil, nil)
	if err != nil {
		g.Problems = append(g.Problems, fmt.Sprintf("manifest: %v", err))
		return g
	}
	g.Shards = len(gen.c.engines)
	for _, f := range gen.failures {
		g.Problems = append(g.Problems, fmt.Sprintf("shard %d (%s): %v", f.shard, f.name, f.err))
	}
	if gen.artErr != nil {
		g.Problems = append(g.Problems, fmt.Sprintf("rules artifact: %v", gen.artErr))
	}
	if len(g.Problems) > 0 {
		return g
	}
	if err := gen.c.rebuildReplicaTable(); err != nil {
		g.Problems = append(g.Problems, err.Error())
		return g
	}
	g.Intact = true
	return g
}

// FsckClusterDir verifies a saved cluster directory and, in repair mode,
// restores it to a state LoadClusterDir accepts: CURRENT pointing at the
// newest intact generation (rolling forward to a complete save whose
// CURRENT flip was lost, or back to the last-good generation when the
// newest is torn), with torn staging directories and broken generations
// removed. Verification is thorough — manifest validity, every shard
// table's CRC trailer and full decode, the rules artifact, and the
// cross-shard replication invariant. Legacy flat directories (cluster.json
// at top level, no CURRENT) are verified in place; there is nothing to
// roll back to, so repair never deletes them.
func FsckClusterDir(dir string, repair bool) (*FsckReport, error) {
	r := &FsckReport{Dir: dir}
	if b, err := os.ReadFile(filepath.Join(dir, ClusterCurrentName)); err == nil {
		r.CurrentBefore = strings.TrimSpace(string(b))
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	r.CurrentAfter = r.CurrentBefore

	gens, debris, err := listGenerations(dir)
	if err != nil {
		return nil, err
	}
	r.hasDebris = len(debris) > 0
	if len(gens) == 0 && r.CurrentBefore == "" {
		// Legacy flat layout, or not a cluster directory at all.
		if _, err := os.Stat(filepath.Join(dir, ClusterManifestName)); err != nil {
			return nil, fmt.Errorf("core: %s holds no generations and no %s manifest", dir, ClusterManifestName)
		}
		g := verifyClusterGen(dir)
		g.Name = "."
		r.Generations = append(r.Generations, g)
		return r, nil
	}

	intactByName := make(map[string]bool, len(gens))
	for _, n := range gens {
		g := verifyClusterGen(filepath.Join(dir, genDirName(n)))
		r.Generations = append(r.Generations, g)
		intactByName[g.Name] = g.Intact
	}
	// The newest intact generation is the repair target: a save whose
	// generation landed completely is authoritative even if the CURRENT
	// flip was lost (roll forward); a torn newest generation falls back to
	// the one CURRENT still names (roll back).
	best := ""
	for i := len(r.Generations) - 1; i >= 0; i-- {
		if r.Generations[i].Intact {
			best = r.Generations[i].Name
			break
		}
	}
	if !repair {
		return r, nil
	}
	if best == "" {
		return r, fmt.Errorf("core: %s has no intact generation to repair onto", dir)
	}
	if r.CurrentBefore != best {
		err := WriteFileAtomic(filepath.Join(dir, ClusterCurrentName), func(f *os.File) error {
			_, werr := f.WriteString(best + "\n")
			return werr
		})
		if err != nil {
			return r, fmt.Errorf("core: repairing %s: %w", ClusterCurrentName, err)
		}
		r.RepairedCurrent = true
		r.CurrentAfter = best
	}
	// Sweep debris: staging directories and generations that failed
	// verification. Intact generations older than best are kept only as
	// the immediate rollback predecessor, matching SaveDir's pruning.
	for _, name := range debris {
		if err := os.RemoveAll(filepath.Join(dir, name)); err == nil {
			r.Removed = append(r.Removed, name)
		}
	}
	keptPrev := false
	for i := len(r.Generations) - 1; i >= 0; i-- {
		g := r.Generations[i]
		if g.Name == best {
			continue
		}
		keep := g.Intact && g.Name < best && !keptPrev
		if keep {
			keptPrev = true
			continue
		}
		if err := os.RemoveAll(filepath.Join(dir, g.Name)); err == nil {
			r.Removed = append(r.Removed, g.Name)
		}
	}
	return r, nil
}
