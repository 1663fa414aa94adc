// The package documentation lives in doc.go; this file holds the
// re-exported model types, constants, and constructor shims.
package nuevomatch

import (
	"nuevomatch/internal/classifiers/cutsplit"
	"nuevomatch/internal/classifiers/linear"
	"nuevomatch/internal/classifiers/neurocuts"
	"nuevomatch/internal/classifiers/rvh"
	"nuevomatch/internal/classifiers/tss"
	"nuevomatch/internal/classifiers/tuplemerge"
	"nuevomatch/internal/core"
	"nuevomatch/internal/rqrmi"
	"nuevomatch/internal/rules"
)

// Core rule-model types, re-exported from the internal packages.
type (
	// Range is an inclusive [Lo, Hi] match over one 32-bit field.
	Range = rules.Range
	// Rule is a multi-field matching rule; smaller Priority wins.
	Rule = rules.Rule
	// Packet is a point in field space.
	Packet = rules.Packet
	// RuleSet is an ordered rule collection.
	RuleSet = rules.RuleSet
	// FiveTuple is the classic (src IP, dst IP, src port, dst port,
	// proto) packet metadata.
	FiveTuple = rules.FiveTuple
	// Classifier is the lookup contract every algorithm implements.
	Classifier = rules.Classifier
	// BoundedClassifier adds early-termination support.
	BoundedClassifier = rules.BoundedClassifier
	// Updatable adds online Insert/Delete.
	Updatable = rules.Updatable
	// Freezable is an updatable classifier that can compile its contents
	// into an immutable, lock-free FrozenClassifier (TupleMerge does; the
	// engine freezes its remainder into every published snapshot).
	Freezable = rules.Freezable
	// FrozenClassifier is the compiled, immutable classifier form.
	FrozenClassifier = rules.FrozenClassifier
	// Builder constructs a classifier over a rule-set.
	Builder = rules.Builder

	// Engine is the classifier underlying a Table. It remains exported for
	// the deprecated Build shim and for code written against the pre-Table
	// API; new code should hold a *Table.
	Engine = core.Engine
	// Options is the positional configuration of the deprecated Build shim.
	// New code passes functional options (WithMaxISets, WithRemainder, …)
	// to Open and Load instead.
	Options = core.Options
	// BuildStats reports what Open (or Build) produced, including which
	// remainder backend serves and — under WithRemainder(RemainderAuto) —
	// the per-candidate selection scores.
	BuildStats = core.BuildStats
	// RemainderScore is one remainder auto-select candidate's measurements
	// (BuildStats.RemainderScores).
	RemainderScore = core.RemainderScore
	// UpdateStats tracks drift since the last build (§3.9).
	UpdateStats = core.UpdateStats
	// RQRMIConfig tunes per-iSet model training (WithRQRMI).
	RQRMIConfig = rqrmi.Config

	// Autopilot supervises a live table: it watches update drift and
	// retrains in place on a background goroutine when the policy trips.
	// Lookups stay zero-lock across the hot swap. Attach one with
	// WithAutopilot (or NewAutopilot for a bare Engine).
	Autopilot = core.Autopilot
	// AutopilotPolicy configures the drift triggers and the optional
	// AfterRetrain persistence hook.
	AutopilotPolicy = core.AutopilotPolicy
	// AutopilotStats is the supervisor's cumulative activity record.
	AutopilotStats = core.AutopilotStats
	// RetrainStats reports one in-place retrain (train time, swap time,
	// journaled updates replayed).
	RetrainStats = core.RetrainStats

	// ClusterStats is a point-in-time structural summary of a Cluster:
	// shard count, routing function, per-shard rule counts, and replication
	// overhead.
	ClusterStats = core.ClusterStats
	// PartitionKind names a cluster partitioning strategy (ClusterStats.Kind).
	PartitionKind = core.PartitionKind

	// Health is a point-in-time serving-condition summary (Table.Health,
	// Cluster.Health): an overall state plus machine-readable reasons.
	Health = core.Health
	// HealthState classifies serving condition: Healthy, Degraded, Failed.
	HealthState = core.HealthState
	// HealthReason is one machine-readable degradation signal (stable Code,
	// human-readable Detail, shard index or -1).
	HealthReason = core.HealthReason
	// QuarantinePolicy configures when a cluster isolates a failing shard
	// and how the background rebuilder paces retries
	// (Cluster.SetQuarantinePolicy).
	QuarantinePolicy = core.QuarantinePolicy
	// FsckReport is FsckCluster's verification/repair result.
	FsckReport = core.FsckReport
	// FsckGeneration is one saved generation's verification verdict within
	// an FsckReport.
	FsckGeneration = core.FsckGeneration
)

// Health states reported by Table.Health and Cluster.Health. Degraded
// still serves correct answers (the fail-static guarantee); Failed means
// not serving updates (closed).
const (
	// Healthy: serving normally.
	Healthy = core.Healthy
	// Degraded: correct but needs attention (quarantined shard, failing
	// retrains or persistence).
	Degraded = core.Degraded
	// Failed: closed.
	Failed = core.Failed
)

// Cluster partitioning strategies, as reported by ClusterStats.Kind. The
// default is range partitioning; WithHashPartition selects hashing.
const (
	// PartitionRange splits the partition field's value space at cut points
	// chosen from the rule distribution.
	PartitionRange = core.PartitionRange
	// PartitionHash maps partition-field values through a fixed hash; rules
	// that are not exact in the field replicate to every shard.
	PartitionHash = core.PartitionHash
)

// MaxClusterShards is the widest cluster WithShards accepts.
const MaxClusterShards = core.MaxClusterShards

// Field indices of the 5-tuple layout.
const (
	FieldSrcIP   = rules.FieldSrcIP
	FieldDstIP   = rules.FieldDstIP
	FieldSrcPort = rules.FieldSrcPort
	FieldDstPort = rules.FieldDstPort
	FieldProto   = rules.FieldProto
	// NumFiveTupleFields is the dimensionality of 5-tuple rule-sets.
	NumFiveTupleFields = rules.NumFiveTupleFields
)

// NoMatch is returned by Lookup when no rule matches.
const NoMatch = rules.NoMatch

// RemainderAuto is the WithRemainder argument that enables remainder
// auto-selection: every registered Freezable backend is trained on the
// actual remainder rule distribution and scored (build time, frozen-lookup
// microbenchmark, memory footprint); the winner serves, and
// Stats().RemainderBackend / RemainderScores report the decision. Retrain
// re-runs the selection, so the backend tracks workload drift.
const RemainderAuto = core.AutoRemainder

// NewRuleSet returns an empty rule-set over the given number of fields.
func NewRuleSet(numFields int) *RuleSet { return rules.NewRuleSet(numFields) }

// FullRange matches any field value.
func FullRange() Range { return rules.FullRange() }

// ExactRange matches a single value.
func ExactRange(v uint32) Range { return rules.ExactRange(v) }

// PrefixRange matches value/prefixLen, e.g. 10.0.0.0/8.
func PrefixRange(value uint32, prefixLen int) Range { return rules.PrefixRange(value, prefixLen) }

// ParseIPv4 parses dotted-quad notation into a uint32 field value.
func ParseIPv4(s string) (uint32, error) { return rules.ParseIPv4(s) }

// FormatIPv4 renders a field value in dotted-quad notation.
func FormatIPv4(v uint32) string { return rules.FormatIPv4(v) }

// Build trains a NuevoMatch engine over the rule-set. The zero Options
// reproduce the paper's default setup: up to 4 iSets, 5% minimum coverage,
// error threshold 64, TupleMerge remainder.
//
// Deprecated: use Open, which returns a *Table with the full
// Save/Load/autopilot lifecycle; Table.Engine recovers the *Engine where
// one is still required.
func Build(rs *RuleSet, opts Options) (*Engine, error) { return core.Build(rs, opts) }

// NewAutopilot wraps a built engine with a drift supervisor. Call Start to
// launch the background watcher (and Stop to halt it), or drive Check
// manually for deterministic retrain points. Tables attach their own via
// WithAutopilot.
func NewAutopilot(e *Engine, policy AutopilotPolicy) *Autopilot {
	return core.NewAutopilot(e, policy)
}

// ErrRetrainInProgress is returned by Retrain when another retrain on the
// same table has not finished yet.
var ErrRetrainInProgress = core.ErrRetrainInProgress

// KernelName reports the RQ-RMI batched-inference kernel the build and CPU
// selected: "avx2" (amd64 with AVX2) or "go-f32" (every other host, and any
// build with the noasm tag).
func KernelName() string { return rqrmi.KernelName() }

// HasAsmKernel reports whether the AVX2 assembly kernel can run on this
// build and host.
func HasAsmKernel() bool { return rqrmi.HasAsmKernel() }

// RegisterRemainder makes a remainder builder resolvable by classifier name
// when a saved table is loaded: Save records the remainder's Name(), and
// Load rebuilds the remainder through this registry (WithRemainder
// overrides it per call). The bundled classifiers below are pre-registered.
func RegisterRemainder(name string, b Builder) { core.RegisterRemainder(name, b) }

// Remainder classifier builders for WithRemainder, and standalone baselines
// for comparison. TupleMerge and RVH are the production Freezable backends
// (lock-free frozen serving, online updates, auto-select candidates); the
// others are locked-fallback baselines — correct, update-capable where
// documented, but served through their own locks rather than a compiled
// frozen form.
var (
	// TupleMerge is the update-capable hash-based classifier (default
	// remainder, Freezable).
	TupleMerge Builder = tuplemerge.Build
	// RVH is the range-vector-hash classifier (Freezable): interval-index
	// hashing over boundary vectors derived from the rule distribution,
	// built for range-heavy rule-sets that defeat prefix tuples.
	RVH Builder = rvh.Build
	// CutSplit is the decision-tree baseline with binth=8.
	CutSplit Builder = cutsplit.Build
	// NeuroCuts is the policy-search decision-tree baseline.
	NeuroCuts Builder = neurocuts.Build
	// TupleSpaceSearch is the classic TSS classifier.
	TupleSpaceSearch Builder = tss.Build
	// Linear is the priority-ordered scan (correctness reference).
	Linear Builder = linear.Build
)

func init() {
	// "tuplemerge" and "rvh" are registered by the core package itself
	// (they are the Freezable production backends); the other bundled
	// classifiers register here so tables saved with them load by name.
	RegisterRemainder("cutsplit", cutsplit.Build)
	RegisterRemainder("neurocuts", neurocuts.Build)
	RegisterRemainder("tss", tss.Build)
	RegisterRemainder("linear", linear.Build)
}
