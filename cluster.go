package nuevomatch

import (
	"errors"
	"fmt"
	"sync/atomic"

	"nuevomatch/internal/core"
)

// Cluster is the sharded serving layer: one logical rule-set partitioned
// across N independent engine shards, each a complete NuevoMatch table
// (its own iSets, frozen remainder, lock-free snapshot, and retrain
// machinery). A packet routes to exactly one shard — the partitioner
// replicates every rule to each shard a matching packet could route to, so
// first-match semantics are preserved shard-locally — which means per-packet
// cost shrinks with shard size while total rule capacity grows N-fold.
// Lookups run on the calling goroutine: a batch scatters to its shards and
// each shard's sub-batch runs in turn. More cores come from more callers.
//
// Every shard can carry its own autopilot (WithClusterAutopilot), so a
// drift-triggered retrain stalls the update side of one shard — 1/N of the
// table — while the other shards keep taking updates undisturbed, and
// lookups everywhere stay lock-free throughout.
//
// Clusters persist as a directory: one table artifact per shard plus a
// manifest tying the routing function to the shard files (SaveDir /
// LoadCluster). Like Table, lookups are safe under any concurrency; updates
// serialize internally; Close releases background resources.
type Cluster struct {
	cc     *core.Cluster
	aps    []*core.Autopilot
	closed atomic.Bool
}

// ClusterOption configures OpenCluster and LoadCluster.
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	shards     int
	field      int
	kind       core.PartitionKind
	shardOpts  []Option
	autopilot  *AutopilotPolicy
	persistDir string
}

// WithShards sets the shard count (default 2, maximum MaxClusterShards).
// The range partitioner may serve fewer shards than requested when the
// partition field lacks enough distinct values to cut; NumShards reports
// the actual width.
func WithShards(n int) ClusterOption {
	return func(c *clusterConfig) { c.shards = n }
}

// WithPartitionField keys routing on field d instead of the default
// auto-selection (the most diverse field, §3.7's signal for a field that
// separates rules well).
func WithPartitionField(d int) ClusterOption {
	return func(c *clusterConfig) { c.field = d }
}

// WithHashPartition switches the partitioner from range splitting to
// hashing the partition-field value. Exact-match rules land on a single
// shard; every non-exact rule is replicated to all shards, so hash
// partitioning suits exact-heavy fields (ports, protocol) and
// range-partitioning (the default) suits prefix-heavy ones (IPs).
func WithHashPartition() ClusterOption {
	return func(c *clusterConfig) { c.kind = core.PartitionHash }
}

// WithShardOptions forwards table options (WithMaxISets, WithRemainder,
// WithRQRMI, ...) to every shard's engine build. Autopilot options are not
// accepted here — per-shard supervision attaches through
// WithClusterAutopilot.
func WithShardOptions(opts ...Option) ClusterOption {
	return func(c *clusterConfig) { c.shardOpts = append(c.shardOpts, opts...) }
}

// WithClusterAutopilot attaches an independent drift supervisor to every
// shard: each shard's watcher polls its own engine and retrains it in place
// when the policy trips, so coverage decay in one partition triggers one
// shard-sized retrain instead of a whole-table one. Close stops all
// watchers.
func WithClusterAutopilot(p AutopilotPolicy) ClusterOption {
	return func(c *clusterConfig) { c.autopilot = &p }
}

// WithClusterAutopilotPersist re-saves the whole cluster under dir after
// every successful autopilot retrain of any shard, keeping the saved
// cluster warm the way WithAutopilotPersist does for a single table. The
// save is the full SaveDir — every shard file plus the manifest — because
// shard files written at different times would disagree about rules
// inserted in between (replicated rules especially), and LoadCluster
// rejects such a directory rather than misroute. Persist failures are
// recorded in the shard's Autopilot().Stats() and never undo the in-memory
// swap. Requires WithClusterAutopilot.
func WithClusterAutopilotPersist(dir string) ClusterOption {
	return func(c *clusterConfig) { c.persistDir = dir }
}

func applyClusterOptions(opts []ClusterOption) (clusterConfig, tableConfig, error) {
	c := clusterConfig{field: core.AutoPartitionField}
	for _, o := range opts {
		o(&c)
	}
	if c.persistDir != "" && c.autopilot == nil {
		return c, tableConfig{}, errors.New("nuevomatch: WithClusterAutopilotPersist requires WithClusterAutopilot")
	}
	tc, err := applyOptions(c.shardOpts)
	if err != nil {
		return c, tc, err
	}
	if tc.autopilot != nil || tc.persistPath != "" {
		return c, tc, errors.New("nuevomatch: use WithClusterAutopilot/WithClusterAutopilotPersist instead of per-shard autopilot options")
	}
	return c, tc, nil
}

// finishCluster wires per-shard autopilots around a built or loaded core
// cluster.
func finishCluster(cc *core.Cluster, c clusterConfig) *Cluster {
	cl := &Cluster{cc: cc}
	if c.autopilot != nil {
		cl.aps = make([]*core.Autopilot, cc.NumShards())
		for s := 0; s < cc.NumShards(); s++ {
			policy := *c.autopilot
			if c.persistDir != "" {
				dir, user := c.persistDir, policy.AfterRetrain
				policy.AfterRetrain = func(st RetrainStats) error {
					// Whole-cluster save: shard files written at different
					// times would disagree about concurrent inserts, and the
					// loader's replication-invariant check rejects that.
					if err := cc.SaveDir(dir); err != nil {
						return err
					}
					if user != nil {
						return user(st)
					}
					return nil
				}
			}
			// Self-healing wiring: consecutive retrain failures on one shard
			// quarantine it (the shard keeps serving its last snapshot while a
			// background rebuilder retries), and a success clears the count.
			userFail := policy.AfterFailure
			policy.AfterFailure = func(err error) {
				cc.NoteRetrainFailure(s, err)
				if userFail != nil {
					userFail(err)
				}
			}
			userOK := policy.AfterRetrain
			policy.AfterRetrain = func(st RetrainStats) error {
				cc.NoteRetrainSuccess(s)
				if userOK != nil {
					return userOK(st)
				}
				return nil
			}
			cl.aps[s] = core.NewAutopilot(cc.ShardEngine(s), policy)
			cl.aps[s].Start()
		}
	}
	return cl
}

// OpenCluster trains a sharded NuevoMatch cluster over the rule-set: the
// partitioner splits (and where ranges span shards, replicates) the rules,
// and every shard trains its own engine — in parallel, since shard training
// is independent. The rule-set is cloned; the caller's copy is not
// retained.
func OpenCluster(rs *RuleSet, opts ...ClusterOption) (*Cluster, error) {
	c, tc, err := applyClusterOptions(opts)
	if err != nil {
		return nil, err
	}
	cc, err := core.BuildCluster(rs, core.ClusterOptions{
		Shards:         c.shards,
		PartitionField: c.field,
		Kind:           c.kind,
		Engine:         tc.opts,
	})
	if err != nil {
		return nil, err
	}
	return finishCluster(cc, c), nil
}

// LoadCluster reconstructs a cluster saved by SaveDir from its CURRENT
// generation (legacy flat directories still load): the manifest restores
// the routing function and each shard loads through the table codec
// (checksums verified, zero retraining). The loader re-verifies that
// every rule lives in exactly the shards the partitioner routes it to, so
// a mismatched manifest/shard combination fails loudly instead of
// misrouting packets. A shard artifact that fails its checksum does not
// fail the load when the generation's rules artifact is intact: the shard
// comes up quarantined on a correct remainder-only fallback built from its
// rule replica, serves immediately, and is retrained back to full speed in
// the background (see Cluster.Health / QuarantinedShards).
// WithShardOptions(WithRemainder(...)) overrides the recorded remainder
// builder as in Load.
func LoadCluster(dir string, opts ...ClusterOption) (*Cluster, error) {
	c, tc, err := applyClusterOptions(opts)
	if err != nil {
		return nil, err
	}
	cc, err := core.LoadClusterDir(dir, tc.opts.Remainder)
	if err != nil {
		return nil, fmt.Errorf("nuevomatch: loading cluster %s: %w", dir, err)
	}
	return finishCluster(cc, c), nil
}

// SaveDir persists the whole cluster into dir, crash-safely: a new
// generation directory (gen-NNNNNNNN) is staged with one table artifact
// per shard, a rules artifact, and the manifest — every file fsynced —
// then atomically renamed into place and published by flipping the CURRENT
// pointer, with the directory fsynced around the rename. The previous
// generation is kept as the rollback target; a crash at any byte of the
// save leaves CURRENT on the last-good generation (FsckCluster verifies
// and repairs). Safe to call concurrently with lookups; updates serialize
// with it.
func (c *Cluster) SaveDir(dir string) error {
	if c.closed.Load() {
		return ErrClosed
	}
	return c.cc.SaveDir(dir)
}

// Lookup returns the ID of the highest-priority rule matching the packet,
// or NoMatch. Exactly one shard is consulted — the replication invariant
// guarantees it holds every rule that can match — so the cost is a lookup
// in an engine 1/N the size of the whole table.
func (c *Cluster) Lookup(p Packet) int { return c.cc.Lookup(p) }

// LookupBatch classifies len(pkts) packets into out (which must have at
// least len(pkts) entries): packets scatter to their shards, each nonempty
// shard runs the batched inference path in turn on the calling goroutine,
// and per-shard winners merge back in the caller's order. Zero-alloc in
// steady state.
func (c *Cluster) LookupBatch(pkts []Packet, out []int) { c.cc.LookupBatch(pkts, out) }

// Insert adds a rule online, replicating it to every shard its
// partition-field range spans.
func (c *Cluster) Insert(r Rule) error {
	if c.closed.Load() {
		return ErrClosed
	}
	return c.cc.Insert(r)
}

// Delete removes a rule by ID from every shard holding a replica.
func (c *Cluster) Delete(id int) error {
	if c.closed.Load() {
		return ErrClosed
	}
	return c.cc.Delete(id)
}

// Modify replaces a rule's matching set or priority (delete + reinsert,
// §3.9), re-routing the rule if its partition-field range moved across
// shards. An invalid replacement is rejected with the old rule still in
// place.
func (c *Cluster) Modify(r Rule) error {
	if c.closed.Load() {
		return ErrClosed
	}
	return c.cc.Modify(r)
}

// RetrainShard retrains one shard in place while the others keep serving
// and taking updates — the isolation sharding buys. The per-shard autopilot
// calls this automatically when attached.
func (c *Cluster) RetrainShard(s int) (RetrainStats, error) {
	if c.closed.Load() {
		return RetrainStats{}, ErrClosed
	}
	return c.cc.RetrainShard(s)
}

// NumShards returns the number of engine shards actually serving.
func (c *Cluster) NumShards() int { return c.cc.NumShards() }

// NumFields returns the dimensionality of the served rule-set — the field
// count every Lookup packet must carry. Fixed at build time.
func (c *Cluster) NumFields() int { return c.cc.NumFields() }

// LiveRuleSet snapshots the distinct live rules across all shards (replicas
// deduplicated) — the logical rule-set the cluster serves.
func (c *Cluster) LiveRuleSet() *RuleSet { return c.cc.LiveRuleSet() }

// ShardEngine exposes shard s's engine for stats, manual retrains, or
// direct benchmarking of one partition.
func (c *Cluster) ShardEngine(s int) *Engine { return c.cc.ShardEngine(s) }

// ShardAutopilot returns shard s's drift supervisor, or nil when the
// cluster was opened without WithClusterAutopilot.
func (c *Cluster) ShardAutopilot(s int) *Autopilot {
	if c.aps == nil {
		return nil
	}
	return c.aps[s]
}

// AutopilotStats aggregates the shard supervisors' activity: retrain and
// failure counts and replayed updates sum, the latencies keep the
// worst/most recent values. Zero when no autopilot is attached.
func (c *Cluster) AutopilotStats() AutopilotStats {
	var agg AutopilotStats
	for s, ap := range c.aps {
		st := ap.Stats()
		agg.Checks += st.Checks
		agg.Retrains += st.Retrains
		agg.Failures += st.Failures
		agg.Replayed += st.Replayed
		agg.PersistFailures += st.PersistFailures
		agg.TotalTrain += st.TotalTrain
		if st.MaxSwap > agg.MaxSwap {
			agg.MaxSwap = st.MaxSwap
		}
		if st.LastTrigger != "" {
			agg.LastTrigger = st.LastTrigger
			agg.LastTrain = st.LastTrain
			agg.LastSwap = st.LastSwap
		}
		// Prefix the originating shard: the aggregate keeps only the most
		// recent error string, and without attribution a multi-shard
		// cluster's "last error" is undebuggable.
		if st.LastError != "" {
			agg.LastError = fmt.Sprintf("shard %d: %s", s, st.LastError)
		}
		if st.LastPersistError != "" {
			agg.LastPersistError = fmt.Sprintf("shard %d: %s", s, st.LastPersistError)
		}
	}
	return agg
}

// Stats reports the cluster's current shape: shard count, routing function,
// per-shard rule counts, and how many rules replication duplicated.
func (c *Cluster) Stats() ClusterStats { return c.cc.Stats() }

// Health reports the cluster's serving condition: Failed when closed,
// Degraded while any shard is quarantined (serving its correct fallback
// while a background rebuilder retries) or any shard's autopilot is
// accumulating retrain or persist failures, Healthy otherwise. The
// fail-static guarantee holds in every state short of Failed: lookups are
// never wrong, only possibly stale or slower.
func (c *Cluster) Health() Health {
	if c.closed.Load() {
		return Health{State: Failed, Reasons: []HealthReason{{Shard: -1, Code: "closed", Detail: "cluster closed"}}}
	}
	h := c.cc.Health()
	// One reason per degradation signal: a quarantined shard's consecutive
	// retrain failures are what put it in quarantine, and the core health
	// already reports "shard-quarantined" (with the rebuild progress) for
	// it. Re-adding the autopilot's "retrain-failing" for the same shard
	// would double-count the shard in any consumer that tallies reasons —
	// exactly the mid-quarantine-rebuild window a readiness endpoint reads.
	quarantined := make(map[int]bool, len(h.Reasons))
	for _, r := range h.Reasons {
		if r.Code == "shard-quarantined" {
			quarantined[r.Shard] = true
		}
	}
	for s, ap := range c.aps {
		eh := core.EngineHealth(ap.Stats())
		for _, r := range eh.Reasons {
			if r.Code == "retrain-failing" && quarantined[s] {
				continue
			}
			r.Shard = s
			h.Reasons = append(h.Reasons, r)
		}
	}
	if len(h.Reasons) > 0 && h.State == Healthy {
		h.State = Degraded
	}
	return h
}

// QuarantinedShards lists the shards currently isolated behind their
// fallback (sorted). Empty on a healthy cluster.
func (c *Cluster) QuarantinedShards() []int { return c.cc.QuarantinedShards() }

// SetQuarantinePolicy replaces the cluster's shard-quarantine policy (zero
// fields take the documented defaults: 3 consecutive retrain failures to
// quarantine, 50ms base rebuild backoff doubling to a 5s cap).
func (c *Cluster) SetQuarantinePolicy(p QuarantinePolicy) { c.cc.SetQuarantinePolicy(p) }

// Name implements Classifier.
func (c *Cluster) Name() string { return "nuevomatch-cluster" }

// MemoryFootprint implements Classifier: the sum of the shards' model and
// remainder-index bytes.
func (c *Cluster) MemoryFootprint() int { return c.cc.MemoryFootprint() }

// Close stops every shard autopilot (waiting out in-flight retrains) and
// the shard quarantine rebuilders. Idempotent; concurrent lookups are unaffected and remain valid after
// Close, while subsequent updates fail with ErrClosed.
func (c *Cluster) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for _, ap := range c.aps {
		ap.Stop()
	}
	c.cc.Close()
	return nil
}

// FsckCluster verifies a cluster directory saved by SaveDir and, with
// repair set, restores it to a loadable state: CURRENT is pointed at the
// newest fully intact generation (rolling forward to a complete save whose
// pointer flip was lost, or back to the last-good generation when the
// newest is torn), and torn staging directories plus broken generations are
// swept. Verification covers the manifest, every shard artifact's checksum
// and full decode, the rules artifact, and the cross-shard replication
// invariant. Without repair it only reports.
func FsckCluster(dir string, repair bool) (*FsckReport, error) {
	return core.FsckClusterDir(dir, repair)
}

// ClusterCurrentDir resolves the generation directory a saved cluster
// currently serves from: the one named by dir's CURRENT pointer, or dir
// itself for a legacy flat layout. Tools that inspect the saved artifacts
// (manifest, shard files) should resolve through this rather than assume a
// layout.
func ClusterCurrentDir(dir string) (string, error) {
	return core.ClusterCurrentDir(dir)
}

var _ Classifier = (*Cluster)(nil)
