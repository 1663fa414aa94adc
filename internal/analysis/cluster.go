package analysis

import (
	"fmt"
	"math/rand"
	"time"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/core"
	"nuevomatch/internal/rules"
	"nuevomatch/internal/trace"
)

// ClusterReport is the sharded-serving section of the benchjson artifact:
// the same rule-set and trace measured through an N-shard core.Cluster,
// with per-shard structure and throughput next to the merged numbers so the
// artifact records both the smaller-engine win and the replication
// overhead that bought it. The merged batch runs each shard in turn on the
// calling goroutine, so the ratio is report-only.
type ClusterReport struct {
	// Shards is the serving width; Kind/PartitionField the routing function.
	Shards         int    `json:"shards"`
	Kind           string `json:"partition_kind"`
	PartitionField int    `json:"partition_field"`
	// BuildSeconds is the wall time of the parallel shard training.
	BuildSeconds float64 `json:"build_seconds"`
	// LiveRules counts distinct rules; ReplicatedRules of those live in more
	// than one shard; ShardRules counts per-shard rules, replicas included.
	LiveRules       int   `json:"live_rules"`
	ReplicatedRules int   `json:"replicated_rules"`
	ShardRules      []int `json:"shard_rules"`
	// PerShard is each shard measured alone on the packets that route to it
	// — the per-shard throughput floor the merge composes from.
	PerShard []ClusterShardPath `json:"per_shard"`
	// Lookup is the routed scalar path; LookupBatch the scatter/gather merge
	// path over the whole trace.
	Lookup      BenchPath `json:"lookup"`
	LookupBatch BenchPath `json:"lookup_batch"`
	// MergedVsSingleBatch is cluster LookupBatch throughput over the
	// single-engine LookupBatch throughput of the same artifact: what the
	// smaller per-shard engines buy on one goroutine (report-only).
	MergedVsSingleBatch float64 `json:"merged_vs_single_batch"`
	// VerifiedPackets/Mismatches are the differential check of the cluster
	// against the linear reference over the trace.
	VerifiedPackets int `json:"verified_packets"`
	Mismatches      int `json:"mismatches"`
	// Health is the cluster's serving condition at measurement end
	// ("healthy" unless a shard was quarantined or retrains failed mid-run,
	// which would make the throughput numbers suspect).
	Health string `json:"health"`
	// HealthReasons carries the machine-readable degradation signals when
	// Health is not "healthy".
	HealthReasons []core.HealthReason `json:"health_reasons,omitempty"`
}

// ClusterShardPath is one shard measured in isolation.
type ClusterShardPath struct {
	Rules int `json:"rules"`
	// TracePackets is how many of the trace's packets route to this shard.
	TracePackets int `json:"trace_packets"`
	// ThroughputPPS is the shard engine's batched throughput on its own
	// routed packets.
	ThroughputPPS float64 `json:"throughput_pps"`
}

// AttachCluster builds an N-shard cluster over the same profile the
// artifact measured and records the sharded numbers. shards <= 0 skips it;
// singleBatchPPS is the artifact's single-engine LookupBatch throughput the
// merged ratio is computed against.
func (a *BenchArtifact) AttachCluster(shards int, seed int64) error {
	if shards <= 0 {
		return nil
	}
	rep, err := RunClusterBench(a.Profile, a.Rules, shards, a.TraceLen, seed, a.LookupBatch.ThroughputPPS)
	if err != nil {
		return err
	}
	a.Cluster = rep
	return nil
}

// RunClusterBench builds the cluster and measures the routed scalar path,
// the merged batch path, and each shard alone, verifying every trace packet
// against the linear reference on the way.
func RunClusterBench(profileName string, size, shards, traceLen int, seed int64, singleBatchPPS float64) (*ClusterReport, error) {
	prof, err := classbench.ProfileByName(profileName)
	if err != nil {
		return nil, err
	}
	rs := classbench.Generate(prof, size)
	rng := rand.New(rand.NewSource(seed))
	tr := trace.Uniform(rng, rs, traceLen)

	opts, err := NMOptions(TM, 64)
	if err != nil {
		return nil, err
	}
	buildStart := time.Now()
	c, err := core.BuildCluster(rs, core.ClusterOptions{
		Shards:         shards,
		PartitionField: core.AutoPartitionField,
		Kind:           core.PartitionRange,
		Engine:         opts,
	})
	if err != nil {
		return nil, fmt.Errorf("building cluster: %w", err)
	}
	defer c.Close()
	buildTime := time.Since(buildStart)

	st := c.Stats()
	rep := &ClusterReport{
		Shards:          st.Shards,
		Kind:            st.Kind.String(),
		PartitionField:  st.PartitionField,
		BuildSeconds:    buildTime.Seconds(),
		LiveRules:       st.LiveRules,
		ReplicatedRules: st.Replicated,
		ShardRules:      st.ShardRules,
	}

	// Differential check before timing anything: a fast wrong cluster is
	// worthless.
	for _, p := range tr.Packets {
		if c.Lookup(p) != rs.MatchID(p) {
			rep.Mismatches++
		}
	}
	rep.VerifiedPackets = len(tr.Packets)

	rep.Lookup = measureScalar(c, tr.Packets)
	rep.LookupBatch = measureBatch(tr.Packets, BatchSize, func(pkts []rules.Packet, out []int) {
		c.LookupBatch(pkts, out)
	})
	if singleBatchPPS > 0 {
		rep.MergedVsSingleBatch = rep.LookupBatch.ThroughputPPS / singleBatchPPS
	}

	// Each shard alone, on the packets that actually route to it.
	routed := routePackets(c, tr.Packets)
	for s := 0; s < st.Shards; s++ {
		sp := ClusterShardPath{Rules: st.ShardRules[s], TracePackets: len(routed[s])}
		if len(routed[s]) >= 64 {
			eng := c.ShardEngine(s)
			sp.ThroughputPPS = measureBatch(routed[s], BatchSize, func(pkts []rules.Packet, out []int) {
				eng.LookupBatch(pkts, out)
			}).ThroughputPPS
		}
		rep.PerShard = append(rep.PerShard, sp)
	}
	h := c.Health()
	rep.Health = h.State.String()
	rep.HealthReasons = h.Reasons
	return rep, nil
}

// routePackets groups the trace by serving shard, using the cluster's own
// batch path output ordering (scatter without gather).
func routePackets(c *core.Cluster, pkts []rules.Packet) [][]rules.Packet {
	routed := make([][]rules.Packet, c.NumShards())
	for _, p := range pkts {
		s := c.RouteShard(p)
		if s >= 0 {
			routed[s] = append(routed[s], p)
		}
	}
	return routed
}
