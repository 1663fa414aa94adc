package core

import (
	"encoding/json"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/classifiers/conformance"
	"nuevomatch/internal/rules"
)

// clusterDriver mirrors churnDriver for a Cluster: an interleaved
// insert/delete/lookup workload with an exact linear-reference mirror.
// Priorities are globally unique (built rules even, pool rules odd), so
// results must equal the mirror's MatchID exactly.
type clusterDriver struct {
	t      *testing.T
	c      *Cluster
	mirror *rules.RuleSet
	pool   []rules.Rule
	rng    *rand.Rand

	ops, lookups, inserts, deletes int
}

func newClusterDriver(t *testing.T, prof classbench.Profile, size, poolSize int, copts ClusterOptions, seed int64) *clusterDriver {
	t.Helper()
	all := classbench.Generate(prof, size+poolSize)
	base := rules.NewRuleSet(all.NumFields)
	for i := 0; i < size; i++ {
		r := all.Rules[i]
		r.Priority = int32(2 * (i + 1))
		base.Add(r)
	}
	pool := make([]rules.Rule, 0, poolSize)
	for i := size; i < size+poolSize; i++ {
		r := all.Rules[i]
		r.ID = 1_000_000 + i
		r.Priority = int32(2*(i-size) + 1)
		pool = append(pool, r)
	}
	c, err := BuildCluster(base, copts)
	if err != nil {
		t.Fatalf("%s: build cluster: %v", prof.Name, err)
	}
	return &clusterDriver{
		t: t, c: c, mirror: base.Clone(), pool: pool,
		rng: rand.New(rand.NewSource(seed)),
	}
}

func (d *clusterDriver) packet() rules.Packet {
	p := make(rules.Packet, d.mirror.NumFields)
	if d.mirror.Len() > 0 && d.rng.Intn(4) != 0 {
		classbench.FillMatchingPacket(d.rng, &d.mirror.Rules[d.rng.Intn(d.mirror.Len())], p)
		return p
	}
	for i := range p {
		p[i] = d.rng.Uint32()
	}
	return p
}

func (d *clusterDriver) step() {
	d.ops++
	switch x := d.rng.Float64(); {
	case x < 0.60:
		d.lookups++
		p := d.packet()
		if got, want := d.c.Lookup(p), d.mirror.MatchID(p); got != want {
			d.t.Fatalf("op %d: cluster Lookup(%v) = %d, want %d", d.ops, p, got, want)
		}
	case x < 0.80 && len(d.pool) > 0:
		r := d.pool[len(d.pool)-1]
		d.pool = d.pool[:len(d.pool)-1]
		if err := d.c.Insert(r); err != nil {
			d.t.Fatalf("op %d: cluster insert %d: %v", d.ops, r.ID, err)
		}
		d.mirror.Add(r)
		d.inserts++
	default:
		if d.mirror.Len() <= 16 {
			return
		}
		i := d.rng.Intn(d.mirror.Len())
		id := d.mirror.Rules[i].ID
		if err := d.c.Delete(id); err != nil {
			d.t.Fatalf("op %d: cluster delete %d: %v", d.ops, id, err)
		}
		d.mirror.Rules[i] = d.mirror.Rules[d.mirror.Len()-1]
		d.mirror.Rules = d.mirror.Rules[:d.mirror.Len()-1]
		d.deletes++
	}
}

// verifySweep checks the routed scalar path and the scatter/gather batch
// path against the mirror over n fresh probes.
func (d *clusterDriver) verifySweep(n int) {
	d.t.Helper()
	pkts := make([]rules.Packet, n)
	want := make([]int, n)
	for i := range pkts {
		pkts[i] = d.packet()
		want[i] = d.mirror.MatchID(pkts[i])
	}
	out := make([]int, n)
	d.c.LookupBatch(pkts, out)
	for i := range pkts {
		if got := d.c.Lookup(pkts[i]); got != want[i] {
			d.t.Fatalf("sweep: cluster Lookup(%v) = %d, want %d", pkts[i], got, want[i])
		}
		if out[i] != want[i] {
			d.t.Fatalf("sweep: cluster LookupBatch[%d] = %d, want %d", i, out[i], want[i])
		}
	}
}

// clusterTestOpts requests width shards over the engine test options.
func clusterTestOpts(width int, kind PartitionKind) ClusterOptions {
	return ClusterOptions{
		Shards:         width,
		PartitionField: AutoPartitionField,
		Kind:           kind,
		Engine:         fastOpts(),
	}
}

// TestClusterSingleShardEquivalence: a 1-shard cluster must behave exactly
// like the unsharded engine — same winners on every path, every profile.
// This is the differential baseline the sharded configurations build on.
func TestClusterSingleShardEquivalence(t *testing.T) {
	profiles := classbench.Profiles()
	size := 200
	if testing.Short() {
		profiles = []classbench.Profile{profiles[0], profiles[5], profiles[10]}
	}
	for pi, prof := range profiles {
		t.Run(prof.Name, func(t *testing.T) {
			rs := classbench.Generate(prof, size)
			for i := range rs.Rules {
				rs.Rules[i].Priority = int32(i + 1)
			}
			e, err := Build(rs.Clone(), fastOpts())
			if err != nil {
				t.Fatal(err)
			}
			c, err := BuildCluster(rs, clusterTestOpts(1, PartitionRange))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if c.NumShards() != 1 {
				t.Fatalf("NumShards = %d, want 1", c.NumShards())
			}
			rng := rand.New(rand.NewSource(300 + int64(pi)))
			pkts := make([]rules.Packet, 400)
			for i := range pkts {
				p := make(rules.Packet, rs.NumFields)
				if rng.Intn(4) != 0 {
					classbench.FillMatchingPacket(rng, &rs.Rules[rng.Intn(rs.Len())], p)
				} else {
					for d := range p {
						p[d] = rng.Uint32()
					}
				}
				pkts[i] = p
			}
			outE := make([]int, len(pkts))
			outC := make([]int, len(pkts))
			e.LookupBatch(pkts, outE)
			c.LookupBatch(pkts, outC)
			for i, p := range pkts {
				if ce, cc := e.Lookup(p), c.Lookup(p); ce != cc {
					t.Fatalf("Lookup(%v): engine %d, 1-shard cluster %d", p, ce, cc)
				}
				if outE[i] != outC[i] {
					t.Fatalf("LookupBatch[%d]: engine %d, 1-shard cluster %d", i, outE[i], outC[i])
				}
			}
		})
	}
}

// TestClusterConformanceMatrix sweeps every ClassBench profile through a
// multi-shard cluster in static and 20%-churned states, for both partition
// strategies, asserting the routed scalar path and the scatter/gather batch
// path agree exactly with the linear reference. This is the cluster
// acceptance criterion: N >= 2 shards, lookup-equivalent to a single table.
func TestClusterConformanceMatrix(t *testing.T) {
	profiles := classbench.Profiles()
	size, pool := 240, 200
	if testing.Short() {
		profiles = []classbench.Profile{profiles[0], profiles[5], profiles[10]}
		size, pool = 150, 120
	}
	for pi, prof := range profiles {
		for _, kind := range []PartitionKind{PartitionRange, PartitionHash} {
			for _, mode := range []string{"static", "churn"} {
				t.Run(prof.Name+"/"+kind.String()+"/"+mode, func(t *testing.T) {
					d := newClusterDriver(t, prof, size, pool, clusterTestOpts(3, kind), 500+int64(pi))
					defer d.c.Close()
					if kind == PartitionHash && d.c.NumShards() < 2 {
						t.Fatalf("hash cluster built %d shards, want 3", d.c.NumShards())
					}
					if mode == "churn" {
						for d.inserts+d.deletes < 2*size/5 {
							d.step()
						}
					}
					d.verifySweep(300)

					st := d.c.Stats()
					if st.LiveRules != d.mirror.Len() {
						t.Errorf("LiveRules = %d, mirror has %d", st.LiveRules, d.mirror.Len())
					}
					total := 0
					for _, n := range st.ShardRules {
						total += n
					}
					if want := st.LiveRules + replicaSurplus(d.c); total != want {
						t.Errorf("shard rule counts sum to %d, want %d (live %d + replica surplus)", total, want, st.LiveRules)
					}
				})
			}
		}
	}
}

// replicaSurplus counts the extra copies replication created (replicas
// beyond each rule's first).
func replicaSurplus(c *Cluster) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	surplus := 0
	for _, mask := range c.shardsOf {
		surplus += bits.OnesCount64(mask) - 1
	}
	return surplus
}

// TestClusterModifyRejectsInvalidFirst checks that an invalid replacement
// leaves the old rule in place on every shard instead of deleting it and
// then failing the insert.
func TestClusterModifyRejectsInvalidFirst(t *testing.T) {
	rs := evenPriorityRules(t, "fw5", 300)
	c, err := BuildCluster(rs, clusterTestOpts(2, PartitionRange))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	victim, p := hittableRule(t, rs, func(int) bool { return true })
	bad := victim
	bad.Fields = append([]rules.Range(nil), victim.Fields...)
	bad.Fields[0] = rules.Range{Lo: 9, Hi: 3}
	short := victim
	short.Fields = victim.Fields[:len(victim.Fields)-1]
	for _, r := range []rules.Rule{bad, short} {
		if err := c.Modify(r); err == nil {
			t.Fatalf("Modify accepted an invalid replacement %v", r.Fields)
		}
		if got := c.Lookup(p); got != victim.ID {
			t.Fatalf("after a rejected Modify, Lookup = %d, want the old rule %d", got, victim.ID)
		}
	}
}

// TestClusterSpanningRules pins the replication invariant on handcrafted
// rules that straddle the range partitioner's cut points: a spanner must be
// present in every shard its range overlaps, win by priority from any of
// them, and vanish from all of them on delete.
func TestClusterSpanningRules(t *testing.T) {
	rs := rules.NewRuleSet(2)
	// Field 0 carries the partition; field 1 is a don't-care. Narrow rules
	// seed the cut distribution at 100k intervals.
	for i := 0; i < 40; i++ {
		lo := uint32(i * 100_000)
		rs.Add(rules.Rule{
			ID: i, Priority: int32(1000 + i),
			Fields: []rules.Range{{Lo: lo, Hi: lo + 50_000}, rules.FullRange()},
		})
	}
	// A global wildcard spanner with poor priority and a tight high-priority
	// spanner crossing the middle of the value space.
	wildID, tightID := 900, 901
	rs.Add(rules.Rule{ID: wildID, Priority: 5000,
		Fields: []rules.Range{rules.FullRange(), rules.FullRange()}})
	rs.Add(rules.Rule{ID: tightID, Priority: 1,
		Fields: []rules.Range{{Lo: 1_500_000, Hi: 2_500_000}, rules.FullRange()}})

	c, err := BuildCluster(rs, ClusterOptions{
		Shards: 4, PartitionField: 0, Kind: PartitionRange, Engine: fastOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.NumShards() < 2 {
		t.Fatalf("cluster degenerated to %d shards", c.NumShards())
	}

	c.mu.Lock()
	wildMask, tightMask := c.shardsOf[wildID], c.shardsOf[tightID]
	c.mu.Unlock()
	if want := c.part.allMask(); wildMask != want {
		t.Fatalf("wildcard spanner mask %#x, want every shard %#x", wildMask, want)
	}
	if bits.OnesCount64(tightMask) != int(bitsSpanned(c, 1_500_000, 2_500_000)) {
		t.Fatalf("tight spanner mask %#x does not match its value span", tightMask)
	}

	mirror := rs.Clone()
	probe := func() {
		t.Helper()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 2000; i++ {
			p := rules.Packet{rng.Uint32(), rng.Uint32()}
			if got, want := c.Lookup(p), mirror.MatchID(p); got != want {
				t.Fatalf("Lookup(%v) = %d, want %d", p, got, want)
			}
		}
		// Exact cut-point values are the off-by-one hot spots.
		for _, cut := range c.part.cuts {
			for _, v := range []uint32{cut - 1, cut, cut + 1} {
				p := rules.Packet{v, 0}
				if got, want := c.Lookup(p), mirror.MatchID(p); got != want {
					t.Fatalf("Lookup at cut value %d = %d, want %d", v, got, want)
				}
			}
		}
	}
	probe()

	// Deleting a spanner must remove every replica.
	if err := c.Delete(tightID); err != nil {
		t.Fatal(err)
	}
	for i := range mirror.Rules {
		if mirror.Rules[i].ID == tightID {
			mirror.Rules = append(mirror.Rules[:i], mirror.Rules[i+1:]...)
			break
		}
	}
	probe()

	// Reinserting with a different span re-replicates to the new shards.
	respan := rules.Rule{ID: tightID, Priority: 1,
		Fields: []rules.Range{{Lo: 0, Hi: 3_900_000}, rules.FullRange()}}
	if err := c.Insert(respan); err != nil {
		t.Fatal(err)
	}
	mirror.Add(respan)
	probe()
}

// bitsSpanned counts the shards the value range [lo, hi] overlaps.
func bitsSpanned(c *Cluster, lo, hi uint32) int {
	return c.part.shardOfValue(hi) - c.part.shardOfValue(lo) + 1
}

// TestClusterPerShardRetrainChurn drives sustained churn with a per-shard
// autopilot supervising every shard, concurrent lookers racing the swaps,
// and every driver lookup verified. Exercised under -race in CI: retrains
// hot-swap one shard while the other shards and the cluster's routing keep
// serving — the isolation property the sharded autopilot exists for.
func TestClusterPerShardRetrainChurn(t *testing.T) {
	prof, err := classbench.ProfileByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	size, pool, churn := 300, 600, 600
	if testing.Short() {
		size, pool, churn = 150, 300, 300
	}
	d := newClusterDriver(t, prof, size, pool, clusterTestOpts(3, PartitionRange), 99)
	defer d.c.Close()

	aps := make([]*Autopilot, d.c.NumShards())
	for s := range aps {
		aps[s] = NewAutopilot(d.c.ShardEngine(s), AutopilotPolicy{
			MaxUpdates:   size / 6,
			MinLiveRules: 1,
			Interval:     -1, // Check-driven for determinism
		})
	}

	// Concurrent lookers hammer the routed and batch paths while the driver
	// churns and triggers retrains.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var probes atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			pkts := make([]rules.Packet, 64)
			out := make([]int, 64)
			for i := range pkts {
				pkts[i] = rules.Packet{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				d.c.LookupBatch(pkts, out)
				for _, p := range pkts {
					d.c.Lookup(p)
				}
				probes.Add(int64(len(pkts)))
			}
		}(int64(1000 + w))
	}

	for d.inserts+d.deletes < churn {
		d.step()
		if d.ops%25 == 0 {
			for _, ap := range aps {
				if _, err := ap.Check(); err != nil {
					t.Fatalf("autopilot check: %v", err)
				}
			}
		}
	}
	close(stop)
	wg.Wait()

	retrains := 0
	for s, ap := range aps {
		st := ap.Stats()
		retrains += st.Retrains
		if st.Failures > 0 {
			t.Errorf("shard %d autopilot failures: %+v", s, st)
		}
	}
	if retrains < 1 {
		t.Fatalf("no shard retrained under %d updates of churn", churn)
	}
	if probes.Load() == 0 {
		t.Fatal("concurrent lookers made no progress")
	}
	d.verifySweep(400)
}

// TestClusterSaveLoadRoundTrip proves SaveDir → LoadClusterDir equivalence
// on a drifted cluster, plus the loader's integrity handling: corrupt
// shard bytes quarantine the shard (served correctly from the rules
// artifact's fallback) while a tampered manifest or shard files swapped
// under the manifest must fail to load rather than misroute.
func TestClusterSaveLoadRoundTrip(t *testing.T) {
	prof, err := classbench.ProfileByName("fw3")
	if err != nil {
		t.Fatal(err)
	}
	d := newClusterDriver(t, prof, 200, 160, clusterTestOpts(3, PartitionRange), 41)
	defer d.c.Close()
	for d.inserts+d.deletes < 70 {
		d.step()
	}

	dir := t.TempDir()
	if err := d.c.SaveDir(dir); err != nil {
		t.Fatalf("SaveDir: %v", err)
	}
	loaded, err := LoadClusterDir(dir, nil)
	if err != nil {
		t.Fatalf("LoadClusterDir: %v", err)
	}
	defer loaded.Close()

	if got, want := loaded.NumShards(), d.c.NumShards(); got != want {
		t.Fatalf("loaded %d shards, saved %d", got, want)
	}
	so, sl := d.c.Stats(), loaded.Stats()
	if sl.LiveRules != so.LiveRules || sl.Replicated != so.Replicated {
		t.Errorf("stats drifted: saved %+v loaded %+v", so, sl)
	}
	pkts := make([]rules.Packet, 500)
	outS := make([]int, len(pkts))
	outL := make([]int, len(pkts))
	for i := range pkts {
		pkts[i] = d.packet()
	}
	d.c.LookupBatch(pkts, outS)
	loaded.LookupBatch(pkts, outL)
	for i, p := range pkts {
		want := d.mirror.MatchID(p)
		if outS[i] != want || outL[i] != want {
			t.Fatalf("batch[%d]: saved %d loaded %d want %d", i, outS[i], outL[i], want)
		}
		if got := loaded.Lookup(p); got != want {
			t.Fatalf("loaded.Lookup(%v) = %d, want %d", p, got, want)
		}
	}

	// The loaded cluster is live: it takes updates and per-shard retrains.
	if err := loaded.Insert(rules.Rule{ID: 42_000_000, Priority: 3,
		Fields: wildcardFields(d.mirror.NumFields)}); err != nil {
		t.Fatalf("insert into loaded cluster: %v", err)
	}
	if _, err := loaded.RetrainShard(0); err != nil {
		t.Fatalf("retrain shard 0 of loaded cluster: %v", err)
	}
	if got := loaded.Lookup(make(rules.Packet, d.mirror.NumFields)); got == rules.NoMatch {
		t.Fatalf("inserted wildcard invisible after retrain: got NoMatch")
	}

	// Tampering targets live inside the current generation directory.
	gdir, err := ClusterCurrentDir(dir)
	if err != nil {
		t.Fatalf("ClusterCurrentDir: %v", err)
	}

	// Corrupt one shard file: the engine codec's checksum rejects it, and
	// the loader quarantines the shard — serving it correctly from the
	// rules artifact's remainder-only fallback instead of failing the load.
	corrupt := filepath.Join(gdir, shardFileName(1))
	blob, err := os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), blob...)
	mut[len(mut)/3] ^= 0x40
	if err := os.WriteFile(corrupt, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	qc, err := LoadClusterDir(dir, nil)
	if err != nil {
		t.Fatalf("load with one corrupt shard should quarantine, got error: %v", err)
	}
	if got := qc.QuarantinedShards(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("quarantined shards = %v, want [1]", got)
	}
	if h := qc.Health(); h.State != Degraded {
		t.Fatalf("health after quarantined load = %v, want Degraded", h)
	}
	for i, p := range pkts {
		if got := qc.Lookup(p); got != d.mirror.MatchID(p) {
			t.Fatalf("quarantined cluster Lookup[%d] = %d, want %d", i, got, d.mirror.MatchID(p))
		}
	}
	qc.Close()
	if err := os.WriteFile(corrupt, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	// Swap two shard files under the manifest: every rule still loads, but
	// replicas no longer sit where the partitioner routes them — the
	// invariant check must refuse.
	a, b := filepath.Join(gdir, shardFileName(0)), filepath.Join(gdir, shardFileName(1))
	blobA, _ := os.ReadFile(a)
	blobB, _ := os.ReadFile(b)
	if err := os.WriteFile(a, blobB, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, blobA, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadClusterDir(dir, nil); err == nil {
		t.Fatal("cluster with swapped shard files loaded without error")
	}
	if err := os.WriteFile(a, blobA, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, blobB, 0o644); err != nil {
		t.Fatal(err)
	}

	// Tamper with the manifest's routing: cuts that do not match the shard
	// contents must be rejected by the same invariant.
	mpath := filepath.Join(gdir, ClusterManifestName)
	mdata, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(mdata, &m); err != nil {
		t.Fatal(err)
	}
	if cuts, ok := m["cuts"].([]any); ok && len(cuts) >= 1 {
		cuts[0] = float64(1) // shift the first cut to value 1
		tampered, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mpath, tampered, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadClusterDir(dir, nil); err == nil {
			t.Fatal("cluster with tampered manifest cuts loaded without error")
		}
	}
}

// wildcardFields builds an all-wildcard field list.
func wildcardFields(n int) []rules.Range {
	f := make([]rules.Range, n)
	for i := range f {
		f[i] = rules.FullRange()
	}
	return f
}

// TestClusterLookupPathsZeroAlloc extends the zero-alloc guard to the
// cluster: routing is arithmetic, the scatter/gather scratch is pooled, and
// the per-shard sub-batches run the engines' own zero-alloc paths.
func TestClusterLookupPathsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are only guaranteed without race instrumentation")
	}
	rng := rand.New(rand.NewSource(17))
	rs := structuredRuleSet(rng, 400)
	c, err := BuildCluster(rs, ClusterOptions{
		Shards: 3, PartitionField: AutoPartitionField, Kind: PartitionRange, Engine: fastOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pkts := make([]rules.Packet, 256)
	for i := range pkts {
		pkts[i] = conformance.RandomPacket(rng, rs)
	}
	var i int
	if avg := testing.AllocsPerRun(200, func() {
		c.Lookup(pkts[i%len(pkts)])
		i++
	}); avg != 0 {
		t.Errorf("cluster Lookup allocates %.2f objects per call, want 0", avg)
	}
	out := make([]int, 128)
	// Warm the scratch pool before measuring.
	for j := 0; j < 8; j++ {
		c.LookupBatch(pkts[:128], out)
		c.LookupBatch(pkts[128:], out)
	}
	var j int
	if avg := testing.AllocsPerRun(100, func() {
		off := (j % 2) * 128
		c.LookupBatch(pkts[off:off+128], out)
		j++
	}); avg != 0 {
		t.Errorf("cluster LookupBatch allocates %.2f objects per call, want 0", avg)
	}
}

// --- manifest codec -------------------------------------------------------

// validManifestJSON builds a well-formed manifest document for mutation.
func validManifestJSON(t *testing.T) []byte {
	t.Helper()
	m := clusterManifest{
		Format:  clusterManifestFormat,
		Version: clusterManifestVersion,
		Kind:    "range",
		Field:   0,
		Cuts:    []uint32{1000, 2000},
		Shards:  []string{"shard-00.nm", "shard-01.nm", "shard-02.nm"},
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestReadClusterManifestRejections table-tests the manifest validator.
func TestReadClusterManifestRejections(t *testing.T) {
	good := validManifestJSON(t)
	if _, err := readClusterManifest(good); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	bad := []struct {
		name string
		mut  func(m map[string]any)
	}{
		{"wrong format", func(m map[string]any) { m["format"] = "tarball" }},
		{"future version", func(m map[string]any) { m["version"] = 99 }},
		{"unknown kind", func(m map[string]any) { m["partition_kind"] = "rendezvous" }},
		{"negative field", func(m map[string]any) { m["partition_field"] = -1 }},
		{"huge field", func(m map[string]any) { m["partition_field"] = 1000 }},
		{"no shards", func(m map[string]any) { m["shards"] = []any{} }},
		{"cut count mismatch", func(m map[string]any) { m["cuts"] = []any{float64(5)} }},
		{"non-increasing cuts", func(m map[string]any) { m["cuts"] = []any{float64(9), float64(9)} }},
		{"path traversal", func(m map[string]any) {
			m["shards"] = []any{"../evil.nm", "b.nm", "c.nm"}
		}},
		{"absolute path", func(m map[string]any) {
			m["shards"] = []any{"/etc/passwd", "b.nm", "c.nm"}
		}},
		{"duplicate shard file", func(m map[string]any) {
			m["shards"] = []any{"a.nm", "a.nm", "c.nm"}
		}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			var m map[string]any
			if err := json.Unmarshal(good, &m); err != nil {
				t.Fatal(err)
			}
			tc.mut(m)
			data, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := readClusterManifest(data); err == nil {
				t.Fatalf("manifest %s accepted", tc.name)
			}
		})
	}
	if _, err := readClusterManifest(append(append([]byte(nil), good...), []byte(`{"x":1}`)...)); err == nil {
		t.Fatal("manifest with trailing JSON accepted")
	}
}

// FuzzReadClusterManifest proves arbitrary bytes never panic the manifest
// reader, and that whatever it accepts re-validates after a marshal round
// trip (no accept-once-reject-later states).
func FuzzReadClusterManifest(f *testing.F) {
	for _, seed := range clusterManifestSeedCorpus(nil) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readClusterManifest(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted manifest does not re-marshal: %v", err)
		}
		if _, err := readClusterManifest(out); err != nil {
			t.Fatalf("re-marshaled manifest no longer validates: %v", err)
		}
	})
}

// clusterManifestSeedCorpus generates fuzz seeds: valid range and hash
// manifests plus near-miss mutants.
func clusterManifestSeedCorpus(t *testing.T) [][]byte {
	marshal := func(m clusterManifest) []byte {
		data, err := json.Marshal(m)
		if err != nil {
			if t != nil {
				t.Fatal(err)
			}
			return nil
		}
		return data
	}
	seeds := [][]byte{
		marshal(clusterManifest{Format: clusterManifestFormat, Version: 1, Kind: "range",
			Field: 0, Cuts: []uint32{4096}, Shards: []string{"shard-00.nm", "shard-01.nm"}}),
		marshal(clusterManifest{Format: clusterManifestFormat, Version: 1, Kind: "hash",
			Field: 3, Shards: []string{"a.nm", "b.nm", "c.nm", "d.nm"}}),
		marshal(clusterManifest{Format: clusterManifestFormat, Version: 1, Kind: "range",
			Field: 1, Shards: []string{"solo.nm"}}),
		[]byte(`{"format":"nuevomatch-cluster","version":1,"partition_kind":"range","partition_field":0,"cuts":[1,2,3],"shards":["x.nm","../y.nm","z.nm","w.nm"]}`),
		[]byte(`{}`),
		[]byte(`not json at all`),
	}
	return seeds
}

// TestRegenClusterManifestFuzzCorpus writes the manifest seeds under
// REGEN_FUZZ_CORPUS=1 and otherwise asserts their presence, mirroring the
// other fuzz targets' corpora.
func TestRegenClusterManifestFuzzCorpus(t *testing.T) {
	seeds := clusterManifestSeedCorpus(t)
	dir := filepath.Join("testdata", "fuzz", "FuzzReadClusterManifest")
	if os.Getenv("REGEN_FUZZ_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
			path := filepath.Join(dir, "manifest-seed-"+strconv.Itoa(i))
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
