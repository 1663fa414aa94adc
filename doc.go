// Package nuevomatch is the public API of this repository: a Go
// implementation of NuevoMatch, the RQ-RMI-based packet classification
// system of "A Computational Approach to Packet Classification"
// (Rashelbach, Rottenstreich, Silberstein — SIGCOMM 2020).
//
// # Quickstart
//
// The package is organized around a serializable Table handle with a
// Build → Save → Load lifecycle, configured by functional options:
//
//	rs := nuevomatch.NewRuleSet(nuevomatch.NumFiveTupleFields)
//	rs.AddAuto(
//	    nuevomatch.PrefixRange(ip, 24),   // source IP
//	    nuevomatch.FullRange(),           // destination IP
//	    nuevomatch.FullRange(),           // source port
//	    nuevomatch.ExactRange(443),       // destination port
//	    nuevomatch.ExactRange(6),         // protocol (TCP)
//	)
//	table, err := nuevomatch.Open(rs)     // trains the RQ-RMI models
//	id := table.Lookup(pkt)               // winning rule ID, -1 if none
//
// The table partitions the rules into iSets indexed by RQ-RMI neural
// models and a remainder indexed by an external classifier: TupleMerge by
// default, or RVH, CutSplit or NeuroCuts. The remainder must be Freezable —
// every table serves it from a frozen form compiled into the published
// snapshot — and Open rejects any other classifier. Lookups run the
// paper's full pipeline — model inference, bounded secondary search,
// multi-field validation, highest-priority selection, and the
// early-termination remainder query — lock-free on every path.
//
// # Persistence
//
// Training is the expensive half of NuevoMatch: the submodels are fitted
// directly, about 1.2 s for acl1 at the paper's 500K rules on a 2-CPU box
// (the paper's gradient training took minutes, §3.9); lookups amortize it. Tables therefore serialize, so the training
// happens offline, once:
//
//	table.SaveFile("acl.nm")                      // build box
//	table, err := nuevomatch.LoadFile("acl.nm")   // serving box: no retraining
//
// Load reconstructs a lookup-identical table in milliseconds: models
// deserialize, the remainder rebuilds from its saved rules, and the first
// packet is served from the same zero-lock snapshot machinery as the
// millionth. Every artifact carries a CRC32-C integrity trailer verified
// before decoding, so torn writes are caught up front. Online drift
// (Insert/Delete/Modify) is captured by Save too — a table saved mid-churn
// reloads with its updates intact.
//
// # Updates and the autopilot
//
// Tables take online updates concurrently with lookups (§3.9) and retrain
// in place via Retrain, a hot swap behind the handle. WithAutopilot
// automates the loop — a drift policy trips background retraining — and
// WithAutopilotPersist re-saves the artifact after every swap:
//
//	table, err := nuevomatch.Open(rs,
//	    nuevomatch.WithAutopilot(nuevomatch.AutopilotPolicy{MaxUpdates: 4096}),
//	    nuevomatch.WithAutopilotPersist("acl.nm"),
//	)
//
// # Sharded serving: Cluster
//
// One engine is bounded by one training run's rule capacity, and a retrain
// stalls the update side of the whole table. A Cluster partitions the
// rule-set across N independent engine shards (the paper's evaluation
// scales the same way, §6): a configurable partition field routes every
// packet to exactly one shard, rules whose range spans several shards are
// replicated so first-match semantics hold shard-locally, and a batch
// scatters to its shards on the calling goroutine:
//
//	cluster, err := nuevomatch.OpenCluster(rs,
//	    nuevomatch.WithShards(4),
//	    nuevomatch.WithClusterAutopilot(nuevomatch.AutopilotPolicy{MaxUpdates: 2048}),
//	)
//	id := cluster.Lookup(pkt)         // routed: one shard consulted
//	cluster.LookupBatch(pkts, out)    // scattered: each busy shard in turn
//	cluster.SaveDir("cluster.d")      // manifest + one table file per shard
//	cluster, err = nuevomatch.LoadCluster("cluster.d")
//
// Each shard carries its own autopilot, so a drift-triggered retrain
// stalls the update side of 1/N of the table instead of all of it.
//
// # Conventions
//
// Rule priorities are numeric with smaller values winning, matching the
// paper's "priority 1 (highest)" convention. Matching is over 32-bit
// fields; wider fields are split into 32-bit chunks as in §4 of the paper.
//
// # Migration from the Options struct
//
// The pre-Table surface — Build(rs, Options{...}) returning an *Engine,
// and NewAutopilot over a bare Engine — is gone: Open with functional
// options replaces Build, WithAutopilot replaces NewAutopilot, and
// Table.Engine still returns the underlying *Engine.
package nuevomatch
