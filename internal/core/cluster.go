// Sharded serving: a Cluster partitions one rule-set across N independent
// engines and routes every packet to exactly one of them. The paper scales
// NuevoMatch by running independent RQ-RMI instances over rule-set
// partitions (§6); the cluster is that axis made a first-class subsystem —
// each shard is a complete Engine (its own iSets, frozen remainder, RCU
// snapshot, retrain machinery), so rule capacity grows N-fold and a retrain
// stalls the update side of 1/N of the table instead of all of it. Lookups
// run on the caller's goroutine, like the engine's: more cores come from
// more callers.
//
// Correctness rests on one invariant, enforced at build, on every update,
// and re-verified on load: a rule is replicated to every shard that some
// packet matching it can route to. Routing is a pure function of the
// packet's value in the partition field, so the shard a packet routes to
// holds every rule that could match it, and first-match (highest-priority)
// semantics are preserved without consulting any other shard. Rules whose
// partition-field range spans several shards ("spanners") are replicated to
// each; replicas share the rule's ID and priority, so whichever shard
// answers, the merge resolves to the same winner the unsharded table would
// pick.
package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"nuevomatch/internal/faultinject"
	"nuevomatch/internal/rules"
)

// PartitionKind selects how the cluster maps partition-field values to
// shards.
type PartitionKind uint8

const (
	// PartitionRange splits the field's value space at cut points chosen
	// from the rule distribution: shard s serves the s-th value interval.
	// Prefix- and range-heavy fields (IPs) shard well here because a narrow
	// rule overlaps few intervals.
	PartitionRange PartitionKind = iota + 1
	// PartitionHash maps each value through a fixed 32-bit mixer modulo the
	// shard count. Exact-match rules land on one shard; every non-exact rule
	// must be replicated to all shards (its values hash everywhere), so hash
	// partitioning suits exact-heavy fields (ports, protocol).
	PartitionHash
)

// String names the partition kind as the cluster manifest spells it.
func (k PartitionKind) String() string {
	switch k {
	case PartitionRange:
		return "range"
	case PartitionHash:
		return "hash"
	default:
		return fmt.Sprintf("PartitionKind(%d)", uint8(k))
	}
}

// partitionKindByName is String's inverse, used by the manifest reader.
func partitionKindByName(s string) (PartitionKind, bool) {
	switch s {
	case "range":
		return PartitionRange, true
	case "hash":
		return PartitionHash, true
	default:
		return 0, false
	}
}

// MaxClusterShards caps the cluster width: shard membership is tracked as a
// 64-bit replica mask.
const MaxClusterShards = 64

// AutoPartitionField selects the partition field automatically (the field
// with the highest rule-set diversity, §3.7's signal for a field that
// separates rules well).
const AutoPartitionField = -1

// ClusterOptions configures BuildCluster.
type ClusterOptions struct {
	// Shards is the number of engine shards. Zero means 2; one shard is a
	// degenerate but valid cluster (useful as a differential baseline). The
	// range partitioner may produce fewer shards than requested when the
	// partition field lacks enough distinct values to cut.
	Shards int
	// PartitionField is the field routing is keyed on. AutoPartitionField
	// (negative) picks the most diverse field.
	PartitionField int
	// Kind is the partitioning strategy; zero means PartitionRange.
	Kind PartitionKind
	// Engine configures each shard's engine build (Options.withDefaults
	// applies per shard).
	Engine Options
}

func (o ClusterOptions) withDefaults() ClusterOptions {
	if o.Shards == 0 {
		o.Shards = 2
	}
	if o.Kind == 0 {
		o.Kind = PartitionRange
	}
	return o
}

// mix32 is the fixed 32-bit finalizer behind PartitionHash. It must stay
// byte-for-byte stable forever: hash routing is persisted via the cluster
// manifest, and a mixer change would silently re-route packets away from
// the shards their rules were saved into.
func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// partitioner is the pure routing function shared by build, lookup, update,
// save, and load.
type partitioner struct {
	kind   PartitionKind
	field  int
	shards int
	// cuts are the range partitioner's split points, strictly increasing:
	// shardOfValue(v) is the number of cuts <= v, so shard 0 serves
	// [0, cuts[0]-1] and the last shard serves [cuts[len-1], MaxValue].
	// Empty for PartitionHash.
	cuts []uint32
}

// shardOfValue routes one partition-field value to its shard.
func (pt *partitioner) shardOfValue(v uint32) int {
	if pt.shards <= 1 {
		return 0
	}
	if pt.kind == PartitionHash {
		return int(mix32(v) % uint32(pt.shards))
	}
	return sort.Search(len(pt.cuts), func(i int) bool { return v < pt.cuts[i] })
}

// shardMaskOfRange returns the replica mask of a rule whose partition-field
// range is r: one bit per shard some packet in r can route to.
func (pt *partitioner) shardMaskOfRange(r rules.Range) uint64 {
	if pt.shards <= 1 {
		return 1
	}
	if pt.kind == PartitionHash {
		if r.IsExact() {
			return 1 << pt.shardOfValue(r.Lo)
		}
		return pt.allMask()
	}
	lo, hi := pt.shardOfValue(r.Lo), pt.shardOfValue(r.Hi)
	return maskRange(lo, hi)
}

// allMask has every shard's bit set.
func (pt *partitioner) allMask() uint64 { return maskRange(0, pt.shards-1) }

// maskRange sets bits lo..hi inclusive.
func maskRange(lo, hi int) uint64 {
	width := uint(hi - lo + 1)
	if width >= 64 {
		return ^uint64(0)
	}
	return ((uint64(1) << width) - 1) << uint(lo)
}

// balancedCuts picks up to shards-1 strictly increasing cut points from the
// distribution of rule range starts in the partition field, so each value
// interval begins with roughly the same number of rules. Wildcards and other
// spanners contribute nothing useful (they replicate regardless) but are
// harmless to include; what matters is that cuts come from values rules
// actually start at, which tracks where packets that match them route.
func balancedCuts(rs *rules.RuleSet, field, shards int) []uint32 {
	vals := make([]uint32, 0, rs.Len())
	for i := range rs.Rules {
		f := rs.Rules[i].Fields[field]
		if !f.IsFull() {
			vals = append(vals, f.Lo)
		}
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	// Dedupe in place: cuts must be strictly increasing.
	uniq := vals[:0]
	for i, v := range vals {
		if i == 0 || v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	if len(uniq) < 2 {
		return nil
	}
	cuts := make([]uint32, 0, shards-1)
	for s := 1; s < shards; s++ {
		c := uniq[s*len(uniq)/shards]
		if c == 0 || (len(cuts) > 0 && c <= cuts[len(cuts)-1]) {
			continue // quantiles collided; accept fewer shards
		}
		cuts = append(cuts, c)
	}
	return cuts
}

// autoPartitionField picks the most diverse field (§3.7): the one whose
// unique-range count is the largest fraction of the rule count, and so
// spreads rules across the most shards.
func autoPartitionField(rs *rules.RuleSet) int {
	best, bestDiv := 0, -1.0
	for d := 0; d < rs.NumFields; d++ {
		if div := rs.FieldDiversity(d); div > bestDiv {
			best, bestDiv = d, div
		}
	}
	return best
}

// Cluster serves one logical rule-set from N independent engine shards.
// Lookups are lock-free end to end: routing is pure arithmetic and each
// shard lookup is the engine's usual one-atomic-load snapshot walk. Batches
// scatter across shards, run each busy shard in turn on the calling
// goroutine and merge per-shard winners back into the caller's order with
// pooled scratch (zero-alloc in steady state). Updates serialize on the
// cluster's own mutex (they touch the replica-mask table) and then on each
// target shard's write lock.
type Cluster struct {
	part    partitioner
	engines []*Engine

	// mu guards the update side: the replica-mask table and the replicated
	// counter. Lookups never take it.
	//
	//nm:lockscope
	mu sync.Mutex
	// shardsOf maps every live rule ID to the mask of shards holding a
	// replica — the delete path's routing table (a rule's range is unknown
	// at Delete(id) time).
	shardsOf   map[int]uint64
	replicated int // live rules with more than one replica
	// ruleByID is the cluster's authoritative replica table: one deep copy
	// of every distinct live rule. It is what SaveDir persists as the rules
	// artifact and what quarantine rebuilds a lost shard from.
	ruleByID map[int]rules.Rule

	// saveMu serializes whole-directory saves with each other (they write
	// outside c.mu so updates are not stalled for the disk I/O). It is
	// deliberately NOT //nm:lockscope: its whole purpose is to be held
	// across disk I/O, away from the update lock.
	saveMu sync.Mutex

	// qmu guards the quarantine state; see health.go.
	qmu          sync.Mutex
	qpolicy      QuarantinePolicy
	quarantined  map[int]*shardQuarantine
	retrainFails map[int]int
	qrng         *rand.Rand
	qstop        chan struct{}
	qwg          sync.WaitGroup

	scratch sync.Pool
	closed  atomic.Bool
}

// BuildCluster partitions rs across opts.Shards engine shards and trains
// them (in parallel — shard training is embarrassingly parallel). The
// rule-set is cloned per shard; the caller's copy is not retained.
func BuildCluster(rs *rules.RuleSet, opts ClusterOptions) (*Cluster, error) {
	opts = opts.withDefaults()
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	if opts.Shards < 0 || opts.Shards > MaxClusterShards {
		return nil, fmt.Errorf("core: %d shards out of range [1, %d]", opts.Shards, MaxClusterShards)
	}
	if rs.NumFields == 0 {
		return nil, fmt.Errorf("core: cannot cluster a zero-field rule-set")
	}
	field := opts.PartitionField
	if field < 0 {
		field = autoPartitionField(rs)
	}
	if field >= rs.NumFields {
		return nil, fmt.Errorf("core: partition field %d out of range (%d fields)", field, rs.NumFields)
	}

	pt := partitioner{kind: opts.Kind, field: field, shards: opts.Shards}
	if pt.kind == PartitionRange && pt.shards > 1 {
		pt.cuts = balancedCuts(rs, field, pt.shards)
		pt.shards = len(pt.cuts) + 1 // the field may not support the full width
	}

	c := &Cluster{
		part:     pt,
		shardsOf: make(map[int]uint64, rs.Len()),
		ruleByID: make(map[int]rules.Rule, rs.Len()),
	}
	shardRules := make([]*rules.RuleSet, pt.shards)
	for s := range shardRules {
		shardRules[s] = rules.NewRuleSet(rs.NumFields)
	}
	for i := range rs.Rules {
		r := &rs.Rules[i]
		mask := pt.shardMaskOfRange(r.Fields[field])
		c.shardsOf[r.ID] = mask
		c.ruleByID[r.ID] = cloneRule(*r)
		if mask&(mask-1) != 0 {
			c.replicated++
		}
		for s := 0; s < pt.shards; s++ {
			if mask&(1<<s) != 0 {
				shardRules[s].Add(cloneRule(*r))
			}
		}
	}

	c.engines = make([]*Engine, pt.shards)
	errs := make([]error, pt.shards)
	var wg sync.WaitGroup
	for s := 0; s < pt.shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c.engines[s], errs[s] = Build(shardRules[s], opts.Engine)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: building shard %d: %w", s, err)
		}
	}
	c.finish()
	return c, nil
}

// finish wires the runtime machinery shared by BuildCluster and the loader.
func (c *Cluster) finish() {
	c.scratch.New = func() any { return newClusterScratch(len(c.engines)) }
	c.qpolicy = QuarantinePolicy{}.withDefaults()
	c.quarantined = make(map[int]*shardQuarantine)
	c.retrainFails = make(map[int]int)
	c.qrng = newQuarantineRNG()
	c.qstop = make(chan struct{})
}

// NumShards returns the number of engine shards actually serving (the range
// partitioner may have produced fewer than requested).
func (c *Cluster) NumShards() int { return len(c.engines) }

// ShardEngine exposes shard s's engine — each shard retrains, saves, and
// reports stats independently, and per-shard supervision (Autopilot)
// attaches here.
func (c *Cluster) ShardEngine(s int) *Engine { return c.engines[s] }

// PartitionField returns the field routing is keyed on.
func (c *Cluster) PartitionField() int { return c.part.field }

// Kind returns the partitioning strategy.
func (c *Cluster) Kind() PartitionKind { return c.part.kind }

// NumFields returns the dimensionality of the served rule-set. It asks the
// engine under its lock: a background retrain may be swapping the engine's
// rule-set in at the same moment.
func (c *Cluster) NumFields() int { return c.engines[0].NumFields() }

// shardOf routes a packet: the shard whose engine holds every rule that can
// match it. Packets too short to carry the partition field route nowhere.
func (c *Cluster) shardOf(p rules.Packet) int {
	if c.part.field >= len(p) {
		return -1
	}
	return c.part.shardOfValue(p[c.part.field])
}

// RouteShard exposes the routing decision for one packet (-1 when the
// packet is too short to carry the partition field) — for tooling that
// groups traffic by serving shard.
func (c *Cluster) RouteShard(p rules.Packet) int { return c.shardOf(p) }

// Name implements rules.Classifier.
func (c *Cluster) Name() string { return "nuevomatch-cluster" }

// Lookup returns the ID of the highest-priority rule matching the packet,
// or rules.NoMatch. One shard is consulted — the replication invariant
// guarantees it holds every candidate — so the cost is a lookup in an
// engine 1/N the size of the unsharded table.
func (c *Cluster) Lookup(p rules.Packet) int {
	s := c.shardOf(p)
	if s < 0 {
		return rules.NoMatch
	}
	return c.engines[s].Lookup(p)
}

// clusterScratch is the pooled scatter/gather state of one LookupBatch call.
type clusterScratch struct {
	idx   [][]int32        // per shard: original packet positions
	pkts  [][]rules.Packet // per shard: routed packets (headers only)
	res   [][]int          // per shard: that shard's winners
	order []int            // shards with work this batch
}

func newClusterScratch(shards int) *clusterScratch {
	return &clusterScratch{
		idx:   make([][]int32, shards),
		pkts:  make([][]rules.Packet, shards),
		res:   make([][]int, shards),
		order: make([]int, 0, shards),
	}
}

// LookupBatch classifies len(pkts) packets into out (which must have at
// least len(pkts) entries): packets scatter to their shards, each nonempty
// shard's sub-batch runs that engine's LookupBatch in turn on the calling
// goroutine (one snapshot load per shard per call), and per-shard winners
// merge back into the caller's order. Scratch is pooled; the path allocates
// nothing in steady state.
func (c *Cluster) LookupBatch(pkts []rules.Packet, out []int) {
	if len(c.engines) == 1 {
		c.engines[0].LookupBatch(pkts, out)
		return
	}
	scr := c.scratch.Get().(*clusterScratch)
	for s := range scr.idx {
		scr.idx[s] = scr.idx[s][:0]
		scr.pkts[s] = scr.pkts[s][:0]
	}
	scr.order = scr.order[:0]

	for i, p := range pkts {
		s := c.shardOf(p)
		if s < 0 {
			out[i] = rules.NoMatch
			continue
		}
		if len(scr.idx[s]) == 0 {
			scr.order = append(scr.order, s)
		}
		scr.idx[s] = append(scr.idx[s], int32(i))
		scr.pkts[s] = append(scr.pkts[s], p)
	}

	for _, s := range scr.order {
		n := len(scr.pkts[s])
		if cap(scr.res[s]) < n {
			scr.res[s] = make([]int, n)
		}
		scr.res[s] = scr.res[s][:n]
	}
	// Slow-shard fault point: one atomic load when disarmed; when armed it
	// delays this batch's dispatch, modeling a shard that answers late (a
	// paging host, a contended core). Answers stay correct — latency faults
	// never violate fail-static.
	faultinject.Sleep(faultinject.PointClusterShardSlow)
	for _, s := range scr.order {
		c.engines[s].LookupBatch(scr.pkts[s], scr.res[s])
	}

	// Gather: each packet has exactly one shard's winner — the merge is a
	// permutation write-back. Priority resolution already happened inside
	// the shard (replicas carry identical priorities, so the routed shard's
	// winner is the global winner).
	for _, s := range scr.order {
		res := scr.res[s]
		for j, pi := range scr.idx[s] {
			out[pi] = res[j]
		}
	}
	// Drop the packet headers before pooling: an idle scratch must not pin
	// the caller's packet backing arrays.
	for _, s := range scr.order {
		clear(scr.pkts[s])
		scr.pkts[s] = scr.pkts[s][:0]
	}
	c.scratch.Put(scr)
}

// Insert adds a rule online, replicating it to every shard its
// partition-field range spans. Replicas are cloned per shard (engines
// retain the rule they are handed).
func (c *Cluster) Insert(r rules.Rule) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.insertLocked(r)
}

// checkRule rejects a rule no shard would accept, before any shard
// changes.
func (c *Cluster) checkRule(r rules.Rule) error {
	if len(r.Fields) != c.NumFields() {
		return fmt.Errorf("core: rule has %d fields, cluster expects %d", len(r.Fields), c.NumFields())
	}
	for d, f := range r.Fields {
		if !f.Valid() {
			return fmt.Errorf("core: rule %d field %d has Lo %d > Hi %d", r.ID, d, f.Lo, f.Hi)
		}
	}
	return nil
}

func (c *Cluster) insertLocked(r rules.Rule) error {
	if err := c.checkRule(r); err != nil {
		return err
	}
	if _, dup := c.shardsOf[r.ID]; dup {
		return fmt.Errorf("core: duplicate rule ID %d", r.ID)
	}
	mask := c.part.shardMaskOfRange(r.Fields[c.part.field])
	for s := 0; s < len(c.engines); s++ {
		if mask&(1<<s) == 0 {
			continue
		}
		if err := c.engines[s].Insert(cloneRule(r)); err != nil {
			// Roll the partial insert back so the replication invariant
			// holds even on failure.
			for p := 0; p < s; p++ {
				if mask&(1<<p) != 0 {
					c.engines[p].Delete(r.ID)
				}
			}
			return fmt.Errorf("core: inserting rule %d into shard %d: %w", r.ID, s, err)
		}
	}
	c.shardsOf[r.ID] = mask
	c.ruleByID[r.ID] = cloneRule(r)
	if mask&(mask-1) != 0 {
		c.replicated++
	}
	return nil
}

// Delete removes a rule by ID from every shard holding a replica.
func (c *Cluster) Delete(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deleteLocked(id)
}

func (c *Cluster) deleteLocked(id int) error {
	mask, ok := c.shardsOf[id]
	if !ok {
		return fmt.Errorf("core: no live rule with ID %d", id)
	}
	// A mid-iteration failure can only mean cluster bookkeeping is broken;
	// keep deleting from the remaining shards so the replicas do not
	// diverge, then report the first error.
	var firstErr error
	for s := 0; s < len(c.engines); s++ {
		if mask&(1<<s) == 0 {
			continue
		}
		if err := c.engines[s].Delete(id); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: deleting rule %d from shard %d: %w", id, s, err)
		}
	}
	delete(c.shardsOf, id)
	delete(c.ruleByID, id)
	if mask&(mask-1) != 0 {
		c.replicated--
	}
	return firstErr
}

// Modify replaces a rule's matching set or priority: delete plus reinsert
// (§3.9), re-routing the rule if its partition-field range moved. An
// invalid replacement is rejected before the old rule is deleted.
func (c *Cluster) Modify(r rules.Rule) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkRule(r); err != nil {
		return err
	}
	if err := c.deleteLocked(r.ID); err != nil {
		return err
	}
	return c.insertLocked(r)
}

// RetrainShard retrains one shard in place (Engine.Retrain): the other
// shards keep serving and taking updates unaffected — the isolation that
// motivates sharding the autopilot. Outcomes feed the quarantine tracker:
// repeated failures on one shard eventually isolate it (health.go).
func (c *Cluster) RetrainShard(s int) (RetrainStats, error) {
	st, err := c.engines[s].Retrain()
	if err != nil {
		c.NoteRetrainFailure(s, err)
	} else {
		c.NoteRetrainSuccess(s)
	}
	return st, err
}

// LiveRuleSet snapshots the distinct live rules across all shards, with
// replicas deduplicated by ID — the logical rule-set the cluster serves.
func (c *Cluster) LiveRuleSet() *rules.RuleSet {
	out := rules.NewRuleSet(c.NumFields())
	seen := make(map[int]bool)
	for _, e := range c.engines {
		live := e.LiveRuleSet()
		for i := range live.Rules {
			if id := live.Rules[i].ID; !seen[id] {
				seen[id] = true
				out.Add(live.Rules[i])
			}
		}
	}
	return out
}

// ClusterStats is a point-in-time structural summary.
type ClusterStats struct {
	// Shards is the serving shard count.
	Shards int
	// Kind and PartitionField identify the routing function; Cuts are the
	// range partitioner's split points.
	Kind           PartitionKind
	PartitionField int
	Cuts           []uint32
	// ShardRules counts live rules per shard, replicas included.
	ShardRules []int
	// LiveRules counts distinct live rules; Replicated of those, the ones
	// present in more than one shard.
	LiveRules  int
	Replicated int
}

// Stats reports the cluster's current shape.
func (c *Cluster) Stats() ClusterStats {
	c.mu.Lock()
	live, repl := len(c.shardsOf), c.replicated
	c.mu.Unlock()
	st := ClusterStats{
		Shards:         len(c.engines),
		Kind:           c.part.kind,
		PartitionField: c.part.field,
		Cuts:           append([]uint32(nil), c.part.cuts...),
		ShardRules:     make([]int, len(c.engines)),
		LiveRules:      live,
		Replicated:     repl,
	}
	for s, e := range c.engines {
		st.ShardRules[s] = e.Updates().LiveRules
	}
	return st
}

// MemoryFootprint sums the shards' model and remainder-index bytes.
func (c *Cluster) MemoryFootprint() int {
	total := 0
	for _, e := range c.engines {
		total += e.MemoryFootprint()
	}
	return total
}

var _ rules.Classifier = (*Cluster)(nil)

// Close stops any background quarantine rebuilders, waiting for an
// in-flight rebuild attempt to finish, and reports the cluster Failed from
// then on. Lookups remain safe after Close (each shard's published snapshot
// is immutable); updates after Close are the caller's to fence. Close is
// idempotent.
func (c *Cluster) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	close(c.qstop)
	c.qwg.Wait()
}

// --- cluster persistence ---------------------------------------------------

// ClusterManifestName is the manifest file a saved cluster directory is
// identified by.
const ClusterManifestName = "cluster.json"

// clusterManifestFormat and clusterManifestVersion gate the manifest codec
// the way tableMagic/tableFormatVersion gate the engine codec.
const (
	clusterManifestFormat  = "nuevomatch-cluster"
	clusterManifestVersion = 1
)

// clusterManifest is the JSON document tying a saved cluster together: the
// routing function and the per-shard table files. Shard state itself lives
// in the engine codec's .nm artifacts (one per shard, each carrying its own
// CRC32-C trailer); the manifest only has to reproduce routing, and is
// written last so a torn SaveDir leaves no valid manifest behind.
type clusterManifest struct {
	Format  string   `json:"format"`
	Version int      `json:"version"`
	Kind    string   `json:"partition_kind"`
	Field   int      `json:"partition_field"`
	Cuts    []uint32 `json:"cuts,omitempty"`
	Shards  []string `json:"shards"`
	// Rules names the cluster rules artifact (the authoritative replica
	// table, see clusterRulesName) saved alongside the shards. Optional:
	// directories saved before the artifact existed load without it, they
	// just cannot quarantine-and-rebuild a corrupt shard.
	Rules string `json:"rules,omitempty"`
}

// readClusterManifest parses and strictly validates a manifest document.
// Arbitrary bytes must produce an error, never a panic and never a manifest
// that could route packets or filesystem access anywhere surprising
// (FuzzReadClusterManifest).
func readClusterManifest(data []byte) (clusterManifest, error) {
	var m clusterManifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return m, fmt.Errorf("core: parsing cluster manifest: %w", err)
	}
	if dec.More() {
		return m, fmt.Errorf("core: trailing garbage after cluster manifest")
	}
	if m.Format != clusterManifestFormat {
		return m, fmt.Errorf("core: not a cluster manifest (format %q)", m.Format)
	}
	if m.Version != clusterManifestVersion {
		return m, fmt.Errorf("core: unsupported cluster manifest version %d (have %d)", m.Version, clusterManifestVersion)
	}
	kind, ok := partitionKindByName(m.Kind)
	if !ok {
		return m, fmt.Errorf("core: unknown partition kind %q", m.Kind)
	}
	if m.Field < 0 || m.Field >= maxCodecFields {
		return m, fmt.Errorf("core: partition field %d out of range", m.Field)
	}
	if len(m.Shards) < 1 || len(m.Shards) > MaxClusterShards {
		return m, fmt.Errorf("core: %d shards out of range [1, %d]", len(m.Shards), MaxClusterShards)
	}
	switch kind {
	case PartitionRange:
		if len(m.Cuts) != len(m.Shards)-1 {
			return m, fmt.Errorf("core: %d cuts do not split %d shards", len(m.Cuts), len(m.Shards))
		}
		for i := 1; i < len(m.Cuts); i++ {
			if m.Cuts[i] <= m.Cuts[i-1] {
				return m, fmt.Errorf("core: cuts not strictly increasing at %d", i)
			}
		}
	case PartitionHash:
		if len(m.Cuts) != 0 {
			return m, fmt.Errorf("core: hash partitioning takes no cuts")
		}
	}
	seen := make(map[string]bool, len(m.Shards))
	for i, name := range m.Shards {
		// Shard files must be plain names next to the manifest: no path
		// separators, no traversal, nothing a hostile manifest could use to
		// read outside its directory.
		if name == "" || name == "." || name == ".." || filepath.Base(name) != name {
			return m, fmt.Errorf("core: illegal shard file name %q", name)
		}
		if seen[name] {
			return m, fmt.Errorf("core: duplicate shard file %q (shard %d)", name, i)
		}
		seen[name] = true
	}
	if m.Rules != "" {
		if m.Rules == "." || m.Rules == ".." || filepath.Base(m.Rules) != m.Rules {
			return m, fmt.Errorf("core: illegal rules file name %q", m.Rules)
		}
		if seen[m.Rules] {
			return m, fmt.Errorf("core: rules file %q collides with a shard file", m.Rules)
		}
	}
	return m, nil
}

// WriteFileAtomic writes path through a temp file in its directory: write
// fills the temp file, which is fsynced, closed, made 0644 and renamed over
// path, and then the directory is fsynced (SyncDir). Readers never observe
// a torn file, and without the directory sync a crash can lose the rename
// itself and resurface the old file (or none) although the write
// "succeeded".
func WriteFileAtomic(path string, write func(*os.File) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(dir)
}

// shardFileName names shard s's table artifact inside a cluster directory.
func shardFileName(s int) string { return fmt.Sprintf("shard-%02d.nm", s) }

// SyncDir fsyncs a directory, making completed renames inside it durable.
// Filesystems that reject directory fsync (some network mounts) are
// tolerated: the renames still happened, only their durability window
// widens.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// rebuildReplicaTable reconstructs shardsOf from the loaded shards and
// verifies the replication invariant: every live rule is present in exactly
// the shards its partition-field range routes to, with a consistent
// priority and partition range at each replica.
func (c *Cluster) rebuildReplicaTable() error {
	nf := c.engines[0].rs.NumFields
	if c.part.field >= nf {
		return fmt.Errorf("core: partition field %d out of range (%d fields)", c.part.field, nf)
	}
	type replica struct {
		mask uint64
		prio int32
		rng  rules.Range
	}
	seen := make(map[int]*replica)
	for s, e := range c.engines {
		if e.rs.NumFields != nf {
			return fmt.Errorf("core: shard %d has %d fields, shard 0 has %d", s, e.rs.NumFields, nf)
		}
		live := e.LiveRuleSet()
		for i := range live.Rules {
			r := &live.Rules[i]
			f := r.Fields[c.part.field]
			if rep, ok := seen[r.ID]; ok {
				if rep.prio != r.Priority || rep.rng != f {
					return fmt.Errorf("core: rule %d differs between replicas (shard %d)", r.ID, s)
				}
				rep.mask |= 1 << s
			} else {
				seen[r.ID] = &replica{mask: 1 << s, prio: r.Priority, rng: f}
				c.ruleByID[r.ID] = cloneRule(*r)
			}
		}
	}
	for id, rep := range seen {
		want := c.part.shardMaskOfRange(rep.rng)
		if rep.mask != want {
			return fmt.Errorf("core: rule %d lives in shard mask %#x but routes to %#x — manifest and shards disagree", id, rep.mask, want)
		}
		c.shardsOf[id] = rep.mask
		if rep.mask&(rep.mask-1) != 0 {
			c.replicated++
		}
	}
	return nil
}
