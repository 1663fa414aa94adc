package nuevomatch_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nuevomatch"
	"nuevomatch/internal/classbench"
	"nuevomatch/internal/faultinject"
)

// uniquePriorities remaps a generated rule-set onto unique priorities so
// differential comparisons have no tie ambiguity.
func uniquePriorities(rs *nuevomatch.RuleSet) {
	for i := range rs.Rules {
		rs.Rules[i].Priority = int32(i + 1)
	}
}

// probePackets draws match-biased probes against the rule-set.
func probePackets(rng *rand.Rand, rs *nuevomatch.RuleSet, n int) []nuevomatch.Packet {
	pkts := make([]nuevomatch.Packet, n)
	for i := range pkts {
		p := make(nuevomatch.Packet, rs.NumFields)
		if rs.Len() > 0 && rng.Intn(4) != 0 {
			classbench.FillMatchingPacket(rng, &rs.Rules[rng.Intn(rs.Len())], p)
		} else {
			for d := range p {
				p[d] = rng.Uint32()
			}
		}
		pkts[i] = p
	}
	return pkts
}

// TestClusterEquivalentToTable is the public-API acceptance differential:
// on every ClassBench profile, a 1-shard cluster and a multi-shard cluster
// must answer exactly like the plain Table, scalar and batched, both
// freshly built and after 20% churn.
func TestClusterEquivalentToTable(t *testing.T) {
	profiles := classbench.Profiles()
	size := 200
	if testing.Short() {
		profiles = []classbench.Profile{profiles[0], profiles[5], profiles[10]}
	}
	for pi, prof := range profiles {
		t.Run(prof.Name, func(t *testing.T) {
			rs := classbench.Generate(prof, size)
			uniquePriorities(rs)

			table, err := nuevomatch.Open(rs.Clone())
			if err != nil {
				t.Fatal(err)
			}
			defer table.Close()
			single, err := nuevomatch.OpenCluster(rs.Clone(),
				nuevomatch.WithShards(1))
			if err != nil {
				t.Fatal(err)
			}
			defer single.Close()
			multi, err := nuevomatch.OpenCluster(rs.Clone(),
				nuevomatch.WithShards(3))
			if err != nil {
				t.Fatal(err)
			}
			defer multi.Close()

			rng := rand.New(rand.NewSource(800 + int64(pi)))
			verify := func(stage string, mirror *nuevomatch.RuleSet) {
				t.Helper()
				pkts := probePackets(rng, mirror, 300)
				outT := make([]int, len(pkts))
				outS := make([]int, len(pkts))
				outM := make([]int, len(pkts))
				table.LookupBatch(pkts, outT)
				single.LookupBatch(pkts, outS)
				multi.LookupBatch(pkts, outM)
				for i, p := range pkts {
					want := mirror.MatchID(p)
					if got := table.Lookup(p); got != want {
						t.Fatalf("%s: table.Lookup = %d, want %d", stage, got, want)
					}
					if got := single.Lookup(p); got != want {
						t.Fatalf("%s: 1-shard cluster.Lookup = %d, want %d", stage, got, want)
					}
					if got := multi.Lookup(p); got != want {
						t.Fatalf("%s: %d-shard cluster.Lookup = %d, want %d", stage, multi.NumShards(), got, want)
					}
					if outT[i] != want || outS[i] != want || outM[i] != want {
						t.Fatalf("%s: batch[%d] table %d / single %d / multi %d, want %d",
							stage, i, outT[i], outS[i], outM[i], want)
					}
				}
			}
			verify("static", rs)

			// 20% churn, applied identically to all three handles.
			mirror := rs.Clone()
			nextID := 5_000_000
			for ops := 0; ops < size/5; ops++ {
				if rng.Intn(2) == 0 && mirror.Len() > 16 {
					i := rng.Intn(mirror.Len())
					id := mirror.Rules[i].ID
					for _, h := range []interface{ Delete(int) error }{table, single, multi} {
						if err := h.Delete(id); err != nil {
							t.Fatalf("churn delete %d: %v", id, err)
						}
					}
					mirror.Rules[i] = mirror.Rules[mirror.Len()-1]
					mirror.Rules = mirror.Rules[:mirror.Len()-1]
				} else {
					src := mirror.Rules[rng.Intn(mirror.Len())]
					r := src
					r.ID = nextID
					nextID++
					r.Priority = int32(size + ops + 2)
					r.Fields = append([]nuevomatch.Range(nil), src.Fields...)
					for _, h := range []interface{ Insert(nuevomatch.Rule) error }{table, single, multi} {
						if err := h.Insert(r); err != nil {
							t.Fatalf("churn insert %d: %v", r.ID, err)
						}
					}
					mirror.Add(r)
				}
			}
			verify("churn", mirror)
		})
	}
}

// TestClusterSaveLoadPublic round-trips a cluster through SaveDir and
// LoadCluster via the public API and proves the loaded cluster is live.
func TestClusterSaveLoadPublic(t *testing.T) {
	prof, err := classbench.ProfileByName("ipc1")
	if err != nil {
		t.Fatal(err)
	}
	rs := classbench.Generate(prof, 180)
	uniquePriorities(rs)
	cluster, err := nuevomatch.OpenCluster(rs.Clone(),
		nuevomatch.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	dir := filepath.Join(t.TempDir(), "cluster.d")
	if err := cluster.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := nuevomatch.LoadCluster(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	rng := rand.New(rand.NewSource(4))
	for _, p := range probePackets(rng, rs, 400) {
		if got, want := loaded.Lookup(p), cluster.Lookup(p); got != want {
			t.Fatalf("loaded.Lookup(%v) = %d, want %d", p, got, want)
		}
	}
	st := loaded.Stats()
	if st.Shards != cluster.NumShards() || st.LiveRules != rs.Len() {
		t.Fatalf("loaded stats %+v do not match saved cluster", st)
	}
	if err := loaded.Insert(nuevomatch.Rule{ID: 9_999_999, Priority: 1,
		Fields: fullFields(rs.NumFields)}); err != nil {
		t.Fatalf("insert into loaded cluster: %v", err)
	}
	if got := loaded.Lookup(make(nuevomatch.Packet, rs.NumFields)); got != 9_999_999 {
		t.Fatalf("wildcard insert invisible: got %d", got)
	}
}

func fullFields(n int) []nuevomatch.Range {
	f := make([]nuevomatch.Range, n)
	for i := range f {
		f[i] = nuevomatch.FullRange()
	}
	return f
}

// TestClusterAutopilotPersist drives churn through a cluster whose shards
// have Check-driven autopilots persisting into the saved directory: after a
// retrain, the directory must reload as a cluster equivalent to the live
// one.
func TestClusterAutopilotPersist(t *testing.T) {
	prof, err := classbench.ProfileByName("acl4")
	if err != nil {
		t.Fatal(err)
	}
	rs := classbench.Generate(prof, 160)
	uniquePriorities(rs)
	dir := filepath.Join(t.TempDir(), "cluster.d")

	cluster, err := nuevomatch.OpenCluster(rs.Clone(),
		nuevomatch.WithShards(2),
		nuevomatch.WithClusterAutopilot(nuevomatch.AutopilotPolicy{
			MaxUpdates:   30,
			MinLiveRules: 1,
			Interval:     -1, // Check-driven
		}),
		nuevomatch.WithClusterAutopilotPersist(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	// The persist directory must hold a full cluster before any retrain
	// fires, or a crash would have nothing to warm-start from.
	if err := cluster.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	mirror := rs.Clone()
	rng := rand.New(rand.NewSource(10))
	nextID := 7_000_000
	for ops := 0; ops < 120; ops++ {
		src := mirror.Rules[rng.Intn(mirror.Len())]
		r := src
		r.ID = nextID
		nextID++
		r.Priority = int32(1000 + ops)
		r.Fields = append([]nuevomatch.Range(nil), src.Fields...)
		if err := cluster.Insert(r); err != nil {
			t.Fatal(err)
		}
		mirror.Add(r)
		for s := 0; s < cluster.NumShards(); s++ {
			if _, err := cluster.ShardAutopilot(s).Check(); err != nil {
				t.Fatalf("shard %d check: %v", s, err)
			}
		}
	}
	st := cluster.AutopilotStats()
	if st.Retrains < 1 {
		t.Fatalf("no shard retrained: %+v", st)
	}
	if st.PersistFailures > 0 {
		t.Fatalf("persist failures: %+v", st)
	}

	// Wait until the shard files on disk settle (persist runs on the
	// retraining goroutine, synchronously within Check, so they already
	// have) and reload from the current generation.
	gdir, err := nuevomatch.ClusterCurrentDir(dir)
	if err != nil {
		t.Fatalf("resolving persisted generation: %v", err)
	}
	if _, err := os.Stat(filepath.Join(gdir, "cluster.json")); err != nil {
		t.Fatalf("manifest missing after persist: %v", err)
	}
	if rep, err := nuevomatch.FsckCluster(dir, false); err != nil {
		t.Fatalf("fsck after persist: %v", err)
	} else if !rep.Healthy() {
		t.Fatalf("fsck reports persisted dir unhealthy: %+v", rep)
	}
	loaded, err := nuevomatch.LoadCluster(dir)
	if err != nil {
		t.Fatalf("reloading persisted cluster: %v", err)
	}
	defer loaded.Close()
	for _, p := range probePackets(rng, mirror, 300) {
		if got, want := loaded.Lookup(p), mirror.MatchID(p); got != want {
			t.Fatalf("persisted cluster Lookup(%v) = %d, want %d", p, got, want)
		}
	}
}

// TestClusterHealthQuarantine exercises the public health surface end to
// end: supervised retrain failures degrade the cluster (with per-shard
// attribution in the aggregated stats), crossing the quarantine threshold
// isolates the shard while lookups stay correct (fail-static), and the
// background rebuilder plus one clean supervised retrain return the
// cluster to Healthy.
func TestClusterHealthQuarantine(t *testing.T) {
	defer faultinject.Reset()
	prof, err := classbench.ProfileByName("ipc1")
	if err != nil {
		t.Fatal(err)
	}
	rs := classbench.Generate(prof, 200)
	uniquePriorities(rs)
	cluster, err := nuevomatch.OpenCluster(rs.Clone(),
		nuevomatch.WithShards(2),
		nuevomatch.WithClusterAutopilot(nuevomatch.AutopilotPolicy{
			MaxUpdates:   1, // any journaled update arms the next Check
			MinLiveRules: 1,
			Interval:     -1, // Check-driven
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if h := cluster.Health(); h.State != nuevomatch.Healthy {
		t.Fatalf("fresh cluster health = %v", h)
	}
	cluster.SetQuarantinePolicy(nuevomatch.QuarantinePolicy{
		FailureThreshold: 2,
		BaseBackoff:      2 * time.Millisecond,
		MaxBackoff:       20 * time.Millisecond,
	})

	mirror := rs.Clone()
	addWildcard := func(id int) {
		t.Helper()
		r := nuevomatch.Rule{ID: id, Priority: int32(10_000 + id%1000),
			Fields: fullFields(rs.NumFields)}
		if err := cluster.Insert(r); err != nil {
			t.Fatal(err)
		}
		mirror.Add(r)
	}
	verify := func(stage string) {
		t.Helper()
		rng := rand.New(rand.NewSource(77))
		for _, p := range probePackets(rng, mirror, 300) {
			if got, want := cluster.Lookup(p), mirror.MatchID(p); got != want {
				t.Fatalf("%s: Lookup = %d, want %d", stage, got, want)
			}
		}
	}

	// Two supervised retrain failures on shard 0 cross the threshold.
	addWildcard(9_000_001) // wildcard: replicates into every shard's journal
	faultinject.Enable(faultinject.PointRetrainBuild, faultinject.Rule{FailCount: 3})
	if _, err := cluster.ShardAutopilot(0).Check(); err == nil {
		t.Fatal("first supervised retrain did not fail under fault")
	}
	if st := cluster.AutopilotStats(); !strings.HasPrefix(st.LastError, "shard 0:") {
		t.Fatalf("aggregated LastError lacks shard attribution: %q", st.LastError)
	}
	if h := cluster.Health(); h.State != nuevomatch.Degraded {
		t.Fatalf("health after one failure = %v", h)
	}
	if q := cluster.QuarantinedShards(); len(q) != 0 {
		t.Fatalf("quarantined below threshold: %v", q)
	}
	if _, err := cluster.ShardAutopilot(0).Check(); err == nil {
		t.Fatal("second supervised retrain did not fail under fault")
	}
	if q := cluster.QuarantinedShards(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("QuarantinedShards = %v, want [0]", q)
	}
	h := cluster.Health()
	if h.State != nuevomatch.Degraded {
		t.Fatalf("health under quarantine = %v", h)
	}
	seen := false
	for _, r := range h.Reasons {
		if r.Code == "shard-quarantined" && r.Shard == 0 {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("no shard-quarantined reason in %v", h)
	}
	verify("quarantined") // fail-static: the isolated shard still serves

	// The rebuilder eats the last scheduled fault, then succeeds.
	faultinject.Reset()
	deadline := time.Now().Add(15 * time.Second)
	for len(cluster.QuarantinedShards()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("quarantine never cleared: health %v", cluster.Health())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// One clean supervised retrain clears the shard's failure streak.
	addWildcard(9_000_002)
	for {
		if ran, err := cluster.ShardAutopilot(0).Check(); err == nil && ran {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("supervised retrain never succeeded: health %v", cluster.Health())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if h := cluster.Health(); h.State != nuevomatch.Healthy {
		t.Fatalf("health after recovery = %v", h)
	}
	verify("recovered")

	cluster.Close()
	if h := cluster.Health(); h.State != nuevomatch.Failed {
		t.Fatalf("closed cluster health = %v", h)
	}
}

// TestClusterHealthNoDoubleCount pins the mid-quarantine-rebuild coherence
// window: while a shard sits in quarantine, its consecutive retrain
// failures are the reason it is there, and Health() must report the single
// "shard-quarantined" reason for it — not additionally the autopilot's
// "retrain-failing" for the same shard. A readiness endpoint tallying
// reasons would otherwise see one sick shard as two.
func TestClusterHealthNoDoubleCount(t *testing.T) {
	defer faultinject.Reset()
	prof, err := classbench.ProfileByName("ipc1")
	if err != nil {
		t.Fatal(err)
	}
	rs := classbench.Generate(prof, 200)
	uniquePriorities(rs)
	cluster, err := nuevomatch.OpenCluster(rs.Clone(),
		nuevomatch.WithShards(2),
		nuevomatch.WithClusterAutopilot(nuevomatch.AutopilotPolicy{
			MaxUpdates:   1,
			MinLiveRules: 1,
			Interval:     -1, // Check-driven
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.SetQuarantinePolicy(nuevomatch.QuarantinePolicy{
		FailureThreshold: 2,
		BaseBackoff:      50 * time.Millisecond,
		MaxBackoff:       time.Second,
	})

	// Unlimited build faults: the supervised retrains fail into quarantine
	// and the background rebuilder keeps failing too, holding the window
	// open while we inspect it.
	faultinject.Enable(faultinject.PointRetrainBuild, faultinject.Rule{})
	r := nuevomatch.Rule{ID: 9_100_001, Priority: 20_000, Fields: fullFields(rs.NumFields)}
	if err := cluster.Insert(r); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := cluster.ShardAutopilot(0).Check(); err == nil {
			t.Fatalf("supervised retrain %d did not fail under fault", i)
		}
	}
	if q := cluster.QuarantinedShards(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("QuarantinedShards = %v, want [0]", q)
	}

	h := cluster.Health()
	if h.State != nuevomatch.Degraded {
		t.Fatalf("health mid-quarantine = %v, want Degraded", h)
	}
	perShardCodes := make(map[int][]string)
	for _, reason := range h.Reasons {
		perShardCodes[reason.Shard] = append(perShardCodes[reason.Shard], reason.Code)
	}
	codes := perShardCodes[0]
	if len(codes) != 1 || codes[0] != "shard-quarantined" {
		t.Fatalf("shard 0 reasons = %v, want exactly [shard-quarantined]; full health: %v", codes, h)
	}

	// Lift the faults and let the rebuilder clear the quarantine so Close
	// does not race a failing rebuild loop.
	faultinject.Reset()
	deadline := time.Now().Add(15 * time.Second)
	for len(cluster.QuarantinedShards()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("quarantine never cleared: health %v", cluster.Health())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
