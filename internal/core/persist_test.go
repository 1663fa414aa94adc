package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/faultinject"
	"nuevomatch/internal/rules"
)

// driftedCluster builds a cluster over prof, churns it past minUpdates
// updates, and returns the driver.
func driftedCluster(t *testing.T, prof classbench.Profile, shards, minUpdates int, seed int64) *clusterDriver {
	t.Helper()
	d := newClusterDriver(t, prof, 150, 200, clusterTestOpts(shards, PartitionRange), seed)
	t.Cleanup(func() { d.c.Close() })
	for d.inserts+d.deletes < minUpdates {
		d.step()
	}
	return d
}

// snapshotMismatches loads the cluster saved in dir and counts lookup
// disagreements against a mirror snapshot over the given probes.
func snapshotMismatches(t *testing.T, dir string, mirror *rules.RuleSet, pkts []rules.Packet) int {
	t.Helper()
	c, err := LoadClusterDir(dir, nil)
	if err != nil {
		t.Fatalf("LoadClusterDir(%s): %v", dir, err)
	}
	defer c.Close()
	if h := c.Health(); h.State == Failed {
		t.Fatalf("loaded cluster reports Failed: %v", h)
	}
	mm := 0
	for _, p := range pkts {
		if c.Lookup(p) != mirror.MatchID(p) {
			mm++
		}
	}
	return mm
}

// TestClusterGenerationLayout: successive saves append generations, CURRENT
// tracks the newest, and pruning keeps exactly the serving generation plus
// its rollback predecessor.
func TestClusterGenerationLayout(t *testing.T) {
	prof, err := classbench.ProfileByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	d := driftedCluster(t, prof, 2, 20, 3)
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		if err := d.c.SaveDir(dir); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		for d.inserts+d.deletes < 20+10*(i+1) {
			d.step()
		}
	}
	gens, debris, err := listGenerations(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(debris) != 0 {
		t.Fatalf("clean saves left debris: %v", debris)
	}
	if len(gens) != 2 || gens[0] != 2 || gens[1] != 3 {
		t.Fatalf("generations after 3 saves = %v, want [2 3] (current + predecessor)", gens)
	}
	gdir, err := ClusterCurrentDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := filepath.Base(gdir); got != genDirName(3) {
		t.Fatalf("CURRENT resolves to %s, want %s", got, genDirName(3))
	}
	// The generation carries all three artifact kinds.
	for _, name := range []string{ClusterManifestName, clusterRulesName, shardFileName(0)} {
		if _, err := os.Stat(filepath.Join(gdir, name)); err != nil {
			t.Fatalf("generation missing %s: %v", name, err)
		}
	}
	if rep, err := FsckClusterDir(dir, false); err != nil || !rep.Healthy() {
		t.Fatalf("fresh save unhealthy: %+v, err %v", rep, err)
	}
}

// TestClusterLegacyFlatLayout: a directory holding cluster.json directly
// (the pre-generation layout) still loads and passes fsck in place.
func TestClusterLegacyFlatLayout(t *testing.T) {
	prof, err := classbench.ProfileByName("ipc1")
	if err != nil {
		t.Fatal(err)
	}
	d := driftedCluster(t, prof, 2, 20, 5)
	dir := t.TempDir()
	if err := d.c.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	// Flatten: move the generation's contents into dir and drop CURRENT,
	// reconstructing what an old save looked like.
	gdir, err := ClusterCurrentDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(gdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if err := os.Rename(filepath.Join(gdir, ent.Name()), filepath.Join(dir, ent.Name())); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(gdir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, ClusterCurrentName)); err != nil {
		t.Fatal(err)
	}

	pkts := make([]rules.Packet, 300)
	for i := range pkts {
		pkts[i] = d.packet()
	}
	if mm := snapshotMismatches(t, dir, d.mirror, pkts); mm != 0 {
		t.Fatalf("legacy flat load: %d mismatches", mm)
	}
	rep, err := FsckClusterDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("legacy flat layout reported unhealthy: %+v", rep)
	}
	if len(rep.Generations) != 1 || rep.Generations[0].Name != "." {
		t.Fatalf("legacy verification shape: %+v", rep.Generations)
	}
}

// TestClusterRulesArtifactCodec: the replica-table artifact round-trips,
// and every corruption mode is detected rather than decoded.
func TestClusterRulesArtifactCodec(t *testing.T) {
	byID := map[int]rules.Rule{
		1: {ID: 1, Priority: 2, Fields: []rules.Range{{Lo: 0, Hi: 100}, {Lo: 5, Hi: 5}}},
		7: {ID: 7, Priority: 1, Fields: []rules.Range{{Lo: 50, Hi: 60}, rules.FullRange()}},
	}
	blob, err := encodeClusterRules(2, byID)
	if err != nil {
		t.Fatal(err)
	}
	nf, rs, err := readClusterRules(blob)
	if err != nil {
		t.Fatal(err)
	}
	if nf != 2 || len(rs) != 2 || rs[0].ID != 1 || rs[1].ID != 7 {
		t.Fatalf("round trip: fields %d rules %+v", nf, rs)
	}

	flip := func(i int) []byte {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x10
		return mut
	}
	if _, _, err := readClusterRules(flip(len(blob) / 2)); err == nil {
		t.Fatal("payload corruption not detected")
	}
	if _, _, err := readClusterRules(flip(len(blob) - 2)); err == nil {
		t.Fatal("trailer corruption not detected")
	}
	if _, _, err := readClusterRules(blob[:len(blob)-3]); err == nil {
		t.Fatal("truncation not detected")
	}
	if _, _, err := readClusterRules(nil); err == nil {
		t.Fatal("empty artifact not rejected")
	}
}

// TestClusterSaveKillPointSweep kills a save at every write step via fault
// injection and proves the crash-safety contract at each: the directory
// still loads (landing on a complete generation with zero lookup
// mismatches against its snapshot), fsck repairs it to a healthy state,
// and a subsequent save succeeds over the debris.
func TestClusterSaveKillPointSweep(t *testing.T) {
	prof, err := classbench.ProfileByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		point faultinject.Point
		skip  int
	}{
		{faultinject.PointClusterSaveShard, 0},
		{faultinject.PointClusterSaveShard, 1},
		{faultinject.PointClusterSaveShard, 2},
		{faultinject.PointClusterSaveRules, 0},
		{faultinject.PointClusterSaveManifest, 0},
		{faultinject.PointClusterSaveSync, 0},
		{faultinject.PointClusterSaveRename, 0},
		{faultinject.PointClusterSaveCurrent, 0},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s@%d", strings.TrimPrefix(string(tc.point), "core.cluster.save."), tc.skip), func(t *testing.T) {
			defer faultinject.Reset()
			d := driftedCluster(t, prof, 3, 30, 11)
			if d.c.NumShards() <= tc.skip {
				t.Skipf("only %d shards", d.c.NumShards())
			}
			dir := t.TempDir()
			if err := d.c.SaveDir(dir); err != nil {
				t.Fatalf("baseline save: %v", err)
			}
			mirror1 := d.mirror.Clone()
			for d.inserts+d.deletes < 60 {
				d.step()
			}
			mirror2 := d.mirror.Clone()
			pkts := make([]rules.Packet, 400)
			for i := range pkts {
				pkts[i] = d.packet()
			}

			faultinject.Enable(tc.point, faultinject.Rule{SkipFirst: tc.skip, FailCount: 1})
			err := d.c.SaveDir(dir)
			fired := faultinject.Triggered(tc.point)
			faultinject.Disable(tc.point)
			if err == nil {
				t.Fatalf("save survived kill at %s", tc.point)
			}
			if fired == 0 {
				t.Fatalf("kill point %s never fired", tc.point)
			}

			// The torn directory must load onto a complete snapshot: the
			// last-good generation, or — when the kill struck after the new
			// generation's rename — possibly the new one. Either way, zero
			// mismatches against that snapshot.
			mm1 := snapshotMismatches(t, dir, mirror1, pkts)
			mm2 := snapshotMismatches(t, dir, mirror2, pkts)
			if mm1 != 0 && mm2 != 0 {
				t.Fatalf("torn dir loads a state matching neither snapshot (%d/%d mismatches)", mm1, mm2)
			}

			// fsck repair must leave a verified-healthy directory that still
			// loads one of the snapshots cleanly.
			if _, err := FsckClusterDir(dir, true); err != nil {
				t.Fatalf("fsck repair: %v", err)
			}
			rep, err := FsckClusterDir(dir, false)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Healthy() {
				t.Fatalf("directory unhealthy after repair: %+v", rep)
			}
			mm1 = snapshotMismatches(t, dir, mirror1, pkts)
			mm2 = snapshotMismatches(t, dir, mirror2, pkts)
			if mm1 != 0 && mm2 != 0 {
				t.Fatalf("repaired dir matches neither snapshot (%d/%d mismatches)", mm1, mm2)
			}

			// Life goes on: the next save over the repaired directory
			// succeeds and serves the current state.
			if err := d.c.SaveDir(dir); err != nil {
				t.Fatalf("save after repair: %v", err)
			}
			if mm := snapshotMismatches(t, dir, mirror2, pkts); mm != 0 {
				t.Fatalf("post-repair save: %d mismatches", mm)
			}
		})
	}
}

// TestFsckRepairScenarios covers corruption fsck must handle beyond torn
// saves: a dangling CURRENT, a malformed CURRENT, and, inside the newest
// generation, two CRC-valid shard files swapped, one torn shard beside an
// intact rules artifact, and corrupted shards (each rolls back to the
// predecessor).
func TestFsckRepairScenarios(t *testing.T) {
	prof, err := classbench.ProfileByName("fw1")
	if err != nil {
		t.Fatal(err)
	}
	d := driftedCluster(t, prof, 2, 20, 19)
	dir := t.TempDir()
	if err := d.c.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	mirror1 := d.mirror.Clone()
	for d.inserts+d.deletes < 40 {
		d.step()
	}
	if err := d.c.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	pkts := make([]rules.Packet, 300)
	for i := range pkts {
		pkts[i] = d.packet()
	}

	cur := filepath.Join(dir, ClusterCurrentName)

	// Malformed CURRENT: load refuses, repair restores the newest intact.
	if err := os.WriteFile(cur, []byte("../../etc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadClusterDir(dir, nil); err == nil {
		t.Fatal("malformed CURRENT loaded")
	}
	if _, err := FsckClusterDir(dir, true); err != nil {
		t.Fatalf("repairing malformed CURRENT: %v", err)
	}
	if mm := snapshotMismatches(t, dir, d.mirror, pkts); mm != 0 {
		t.Fatalf("after malformed-CURRENT repair: %d mismatches", mm)
	}

	// rollsBack requires fsck to report the newest generation broken and
	// repair to roll back to the predecessor (mirror1's snapshot), then
	// saves the live cluster as a fresh newest generation.
	rollsBack := func(what string) {
		t.Helper()
		rep, err := FsckClusterDir(dir, false)
		if err != nil {
			t.Fatalf("%s: fsck: %v", what, err)
		}
		for _, g := range rep.Generations {
			if g.Name == rep.CurrentBefore && g.Intact {
				t.Fatalf("%s: fsck reports the newest generation intact: %+v", what, g)
			}
		}
		if rep.Healthy() {
			t.Fatalf("%s: fsck reports healthy: %+v", what, rep)
		}
		if rep, err = FsckClusterDir(dir, true); err != nil {
			t.Fatalf("%s: rollback repair: %v", what, err)
		}
		if !rep.RepairedCurrent {
			t.Fatalf("%s: repair did not move CURRENT: %+v", what, rep)
		}
		if mm := snapshotMismatches(t, dir, mirror1, pkts); mm != 0 {
			t.Fatalf("%s: %d mismatches against predecessor snapshot", what, mm)
		}
		if err := d.c.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
	}

	// Two shard files swapped: each passes its own CRC and decodes, but
	// the replicas no longer sit where the manifest routes them.
	gdir, err := ClusterCurrentDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := filepath.Join(gdir, shardFileName(0)), filepath.Join(gdir, shardFileName(1))
	blobA, errA := os.ReadFile(a)
	blobB, errB := os.ReadFile(b)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if err := os.WriteFile(a, blobB, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, blobA, 0o644); err != nil {
		t.Fatal(err)
	}
	rollsBack("swapped shards")

	// One torn shard while the rules artifact is intact: a load survives it
	// on a quarantined fallback, but the generation is not intact.
	if gdir, err = ClusterCurrentDir(dir); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(gdir, shardFileName(0))
	blob, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	lc, err := LoadClusterDir(dir, nil)
	if err != nil {
		t.Fatalf("torn shard beside an intact rules artifact did not load: %v", err)
	}
	lc.Close()
	rollsBack("torn shard")

	// Corrupt every shard of the newest generation: repair must roll back
	// to the predecessor (mirror1's snapshot).
	if gdir, err = ClusterCurrentDir(dir); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < d.c.NumShards(); s++ {
		p := filepath.Join(gdir, shardFileName(s))
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)/2] ^= 0xFF
		if err := os.WriteFile(p, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := FsckClusterDir(dir, true)
	if err != nil {
		t.Fatalf("rollback repair: %v", err)
	}
	if !rep.RepairedCurrent {
		t.Fatalf("repair did not move CURRENT: %+v", rep)
	}
	if mm := snapshotMismatches(t, dir, mirror1, pkts); mm != 0 {
		t.Fatalf("after rollback repair: %d mismatches against predecessor snapshot", mm)
	}

	// Dangling CURRENT (generation directory gone): repair points at what
	// remains.
	gdir, err = ClusterCurrentDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cur, []byte(genDirName(99999999)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadClusterDir(dir, nil); err == nil {
		t.Fatal("dangling CURRENT loaded")
	}
	if _, err := FsckClusterDir(dir, true); err != nil {
		t.Fatalf("repairing dangling CURRENT: %v", err)
	}
	if got, err := ClusterCurrentDir(dir); err != nil || got != gdir {
		t.Fatalf("dangling-CURRENT repair resolved %q (err %v), want %q", got, err, gdir)
	}

	// A directory with no intact generation at all cannot be repaired, and
	// says so instead of fabricating state.
	broken := t.TempDir()
	if err := os.Mkdir(filepath.Join(broken, genDirName(1)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(broken, ClusterCurrentName), []byte(genDirName(1)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FsckClusterDir(broken, true); err == nil {
		t.Fatal("repair fabricated a cluster from nothing")
	}
}

// TestClusterLoadQuarantinesTornShard: a save killed mid-shard-write
// followed by a manual CURRENT flip (simulating the worst operator move)
// still serves every packet correctly — the torn shard comes up
// quarantined on its rules-artifact fallback, and the background rebuild
// returns the cluster to Healthy.
func TestClusterLoadQuarantinesTornShard(t *testing.T) {
	defer faultinject.Reset()
	prof, err := classbench.ProfileByName("acl2")
	if err != nil {
		t.Fatal(err)
	}
	d := driftedCluster(t, prof, 3, 30, 23)
	dir := t.TempDir()
	if err := d.c.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	gdir, err := ClusterCurrentDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one shard artifact of the serving generation in place.
	target := filepath.Join(gdir, shardFileName(1))
	blob, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x01 // break the CRC trailer
	if err := os.WriteFile(target, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	// Hold the background rebuild failing until the degraded state has been
	// inspected: a retrain now fits in milliseconds and could otherwise
	// clear the quarantine before it is read.
	faultinject.Enable(faultinject.PointRetrainBuild, faultinject.Rule{})
	c, err := LoadClusterDir(dir, nil)
	if err != nil {
		t.Fatalf("quarantine load: %v", err)
	}
	defer c.Close()
	if got := c.QuarantinedShards(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("quarantined = %v, want [1]", got)
	}
	h := c.Health()
	if h.State != Degraded {
		t.Fatalf("health = %v, want Degraded", h)
	}
	if len(h.Reasons) == 0 || h.Reasons[0].Code != "shard-quarantined" {
		t.Fatalf("reasons = %+v", h.Reasons)
	}
	// Fail-static while degraded: every answer correct.
	for i := 0; i < 400; i++ {
		p := d.packet()
		if got, want := c.Lookup(p), d.mirror.MatchID(p); got != want {
			t.Fatalf("degraded Lookup(%v) = %d, want %d", p, got, want)
		}
	}
	// Once builds succeed again, the background rebuild retrains the
	// fallback and clears quarantine.
	faultinject.Disable(faultinject.PointRetrainBuild)
	waitHealthy(t, c)
}
