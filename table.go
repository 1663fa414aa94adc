package nuevomatch

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"nuevomatch/internal/core"
	"nuevomatch/internal/faultinject"
)

// Table is the package's primary handle: a built NuevoMatch classifier with
// a full lifecycle. Build one with Open (training happens here), persist it
// with Save/SaveFile, and reconstruct it — without retraining — with
// Load/LoadFile. Lookups on every path are lock-free and safe for any
// concurrency; updates (Insert/Delete/Modify) serialize internally and may
// run concurrently with lookups; Retrain hot-swaps a freshly trained state
// behind the handle while lookups keep flowing. A Table configured with
// WithAutopilot supervises itself: drift trips the policy, retraining runs
// on a background goroutine, and WithAutopilotPersist re-saves the artifact
// after every swap.
//
// Close releases background resources (the autopilot watcher). Lookups
// remain valid after Close — the published state is immutable — but updates
// fail with ErrClosed, and Close is idempotent.
type Table struct {
	eng    *core.Engine
	ap     *core.Autopilot
	closed atomic.Bool
}

// ErrClosed is returned by update operations on a closed Table.
var ErrClosed = errors.New("nuevomatch: table is closed")

// Option configures Open and Load. The zero configuration reproduces the
// paper's default evaluation setup: up to 4 iSets, 5% minimum coverage,
// RQ-RMI error threshold 64, TupleMerge remainder, no autopilot.
type Option func(*tableConfig)

type tableConfig struct {
	opts core.Options
	// remainderName is WithRemainder's backend name; applyOptions resolves
	// it into opts.Remainder through the registry.
	remainderName string
	autopilot     *AutopilotPolicy
	persistPath   string
	err           error
}

// WithMaxISets caps the number of RQ-RMI iSet models trained. The paper
// finds 1–2 best with CutSplit/NeuroCuts remainders and 4 (the default)
// with TupleMerge (§5.3.2). n <= 0 disables iSets entirely: the table
// degrades to the remainder classifier alone.
func WithMaxISets(n int) Option {
	return func(c *tableConfig) {
		if n <= 0 {
			n = -1
		}
		c.opts.MaxISets = n
	}
}

// WithMinCoverage discards candidate iSets below this fraction of the
// rule-set: the paper uses 0.25 against CutSplit/NeuroCuts and 0.05 (the
// default) against TupleMerge. f <= 0 keeps every iSet however small.
func WithMinCoverage(f float64) Option {
	return func(c *tableConfig) {
		if f <= 0 {
			f = -1
		}
		c.opts.MinCoverage = f
	}
}

// WithRemainder selects the external classifier indexing the rules the
// iSets cannot cover (§3.7). It accepts:
//
//   - a Builder value (TupleMerge, RVH, CutSplit, NeuroCuts) or any function
//     with the Builder signature;
//   - a registered backend name string ("tuplemerge", "rvh", "cutsplit",
//     "neurocuts"), resolved through the RegisterRemainder registry.
//
// The builder's product must be Freezable: Open and Load fail with an error
// naming any other classifier. The default is TupleMerge. On Load, a
// builder or name overrides the builder recorded in the artifact —
// required when the table was saved with a remainder registered under a
// custom name. Any other argument type fails Open/Load with an error.
func WithRemainder(r any) Option {
	return func(c *tableConfig) {
		switch v := r.(type) {
		case Builder:
			c.opts.Remainder, c.remainderName = v, ""
		case func(*RuleSet) (Classifier, error):
			c.opts.Remainder, c.remainderName = v, ""
		case string:
			c.remainderName = v
		default:
			c.err = fmt.Errorf("nuevomatch: WithRemainder wants a Builder or a backend name string, got %T", r)
		}
	}
}

// WithRQRMI tunes per-iSet model training; zero fields take the paper's
// defaults for the iSet's size. Ignored by Load until the next Retrain
// (loading never trains).
func WithRQRMI(cfg RQRMIConfig) Option {
	return func(c *tableConfig) { c.opts.RQRMI = cfg }
}

// WithISetFields restricts which packet fields may carry iSets.
func WithISetFields(fields ...int) Option {
	return func(c *tableConfig) { c.opts.ISetFields = fields }
}

// WithAutopilot attaches a drift supervisor to the table: a background
// watcher polls update drift and retrains in place when the policy trips
// (zero policy fields take the documented defaults; a negative
// policy.Interval disables the watcher so Autopilot().Check drives retrains
// explicitly). The watcher starts immediately and Close stops it.
func WithAutopilot(p AutopilotPolicy) Option {
	return func(c *tableConfig) { c.autopilot = &p }
}

// WithAutopilotPersist re-saves the table to path (atomically: temp file +
// rename) after every successful autopilot retrain, so a restart
// warm-starts from the freshest trained state instead of the artifact it
// booted from. Requires WithAutopilot. Persist failures are recorded in
// Autopilot().Stats() and never undo the in-memory swap.
func WithAutopilotPersist(path string) Option {
	return func(c *tableConfig) { c.persistPath = path }
}

func applyOptions(opts []Option) (tableConfig, error) {
	var c tableConfig
	for _, o := range opts {
		o(&c)
	}
	if c.err != nil {
		return c, c.err
	}
	if c.persistPath != "" && c.autopilot == nil {
		return c, errors.New("nuevomatch: WithAutopilotPersist requires WithAutopilot")
	}
	if name := c.remainderName; name != "" {
		b, ok := core.RemainderBuilderFor(name)
		if !ok {
			return c, fmt.Errorf("nuevomatch: unknown remainder classifier %q (register it with RegisterRemainder)", name)
		}
		c.opts.Remainder = b
	}
	return c, nil
}

// finish wraps a built or loaded engine into a Table and wires the
// autopilot.
func finish(eng *core.Engine, c tableConfig) *Table {
	t := &Table{eng: eng}
	if c.autopilot != nil {
		policy := *c.autopilot
		if c.persistPath != "" {
			path, user := c.persistPath, policy.AfterRetrain
			policy.AfterRetrain = func(st RetrainStats) error {
				// Write through the engine, not Table.SaveFile: a retrain
				// that Close is waiting out must still persist its result
				// (the closed flag is already set at that point).
				if err := saveEngineFile(t.eng, path); err != nil {
					return err
				}
				if user != nil {
					return user(st)
				}
				return nil
			}
		}
		t.ap = core.NewAutopilot(eng, policy)
		t.ap.Start()
	}
	return t
}

// Open trains a NuevoMatch table over the rule-set — the expensive step the
// persistence lifecycle amortizes: the RQ-RMI submodels are fitted directly,
// about 1.2 s for acl1 at the paper's 500K rules on a 2-CPU box, against a
// Load measured in milliseconds. The rule-set is cloned;
// the caller's copy is not retained.
func Open(rs *RuleSet, opts ...Option) (*Table, error) {
	c, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	eng, err := core.Build(rs, c.opts)
	if err != nil {
		return nil, err
	}
	return finish(eng, c), nil
}

// Load reconstructs a table serialized by Save: options, rules, liveness,
// and every trained model deserialize; the remainder classifier is rebuilt
// from the saved remainder rules and re-frozen — zero retraining, and the
// loaded table answers every lookup exactly like the saved one, zero-lock
// from the first packet. Structural options recorded in the artifact
// (MaxISets, MinCoverage, iSet fields) are restored from it; WithRemainder
// overrides the recorded remainder builder, and WithAutopilot /
// WithAutopilotPersist attach a fresh supervisor. Malformed input returns an
// error, never a panic.
func Load(r io.Reader, opts ...Option) (*Table, error) {
	c, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	// A remainder option overrides the artifact's recorded backend; none
	// (nil) keeps the recorded one.
	eng, err := core.ReadEngine(r, c.opts.Remainder)
	if err != nil {
		return nil, err
	}
	return finish(eng, c), nil
}

// LoadFile is Load from a file.
func LoadFile(path string, opts ...Option) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Load(f, opts...)
	if err != nil {
		return nil, fmt.Errorf("nuevomatch: loading %s: %w", path, err)
	}
	return t, nil
}

// Save serializes the table's complete state — build options, rules with
// liveness, every trained RQ-RMI model, and the current remainder —
// capturing online drift too: a table saved mid-churn reloads with its
// inserts, deletes, and overlay intact. It implements io.WriterTo's
// contract and returns the byte count. Safe to call concurrently with
// lookups (which it never blocks) and with updates (which serialize with
// it, so the image is one consistent state).
func (t *Table) Save(w io.Writer) (int64, error) {
	if t.closed.Load() {
		return 0, ErrClosed
	}
	return t.eng.WriteTo(w)
}

// SaveFile saves atomically: the table is written to a temp file in the
// destination directory and renamed over path, so readers never observe a
// torn artifact.
func (t *Table) SaveFile(path string) error {
	if t.closed.Load() {
		return ErrClosed
	}
	return saveEngineFile(t.eng, path)
}

// saveEngineFile is the atomic write behind SaveFile and the autopilot
// persistence hook (which must work even while Close waits out an
// in-flight retrain): core.WriteFileAtomic fsyncs the temp file before the
// rename and the directory after it.
func saveEngineFile(eng *core.Engine, path string) error {
	if err := faultinject.Hit(faultinject.PointTableSave); err != nil {
		return err
	}
	return core.WriteFileAtomic(path, func(f *os.File) error {
		_, err := eng.WriteTo(f)
		return err
	})
}

// Lookup returns the ID of the highest-priority rule matching the packet,
// or NoMatch. Lock-free: one atomic snapshot load, then flat-array reads.
func (t *Table) Lookup(p Packet) int { return t.eng.Lookup(p) }

// LookupWithBound is Lookup under an externally known best priority
// (rules.BoundedClassifier).
func (t *Table) LookupWithBound(p Packet, bestPrio int32) int {
	return t.eng.LookupWithBound(p, bestPrio)
}

// LookupBatch classifies len(pkts) packets into out (which must have at
// least len(pkts) entries) with batched RQ-RMI inference — the table's
// highest-throughput entry point.
func (t *Table) LookupBatch(pkts []Packet, out []int) { t.eng.LookupBatch(pkts, out) }

// LookupBatchParallel is LookupBatch.
//
// Deprecated: every lookup runs on its caller's goroutine; use LookupBatch,
// and call it from more goroutines to use more cores.
func (t *Table) LookupBatchParallel(pkts []Packet, out []int) { t.LookupBatch(pkts, out) }

// Insert adds a rule online; per §3.9 additions go to the remainder.
func (t *Table) Insert(r Rule) error {
	if t.closed.Load() {
		return ErrClosed
	}
	return t.eng.Insert(r)
}

// Delete removes a rule by ID online.
func (t *Table) Delete(id int) error {
	if t.closed.Load() {
		return ErrClosed
	}
	return t.eng.Delete(id)
}

// Modify replaces a rule's matching set or priority (delete + reinsert,
// §3.9). An invalid replacement is rejected with the old rule still in
// place, and readers see the old rule or the new one, never neither.
func (t *Table) Modify(r Rule) error {
	if t.closed.Load() {
		return ErrClosed
	}
	return t.eng.Modify(r)
}

// Retrain retrains the table in place over its current live rules — the
// paper's periodic retraining as a hot swap. Lookups never stall: training
// runs off-lock, concurrent updates are journaled and replayed in one bulk
// pass, and the result publishes atomically behind the handle.
func (t *Table) Retrain() (RetrainStats, error) {
	if t.closed.Load() {
		return RetrainStats{}, ErrClosed
	}
	return t.eng.Retrain()
}

// Autopilot returns the drift supervisor attached by WithAutopilot, or nil.
// Use it for Stats and for explicit Check-driven retrain points.
func (t *Table) Autopilot() *Autopilot { return t.ap }

// AutopilotStats returns the attached supervisor's cumulative activity, or
// the zero value when the table has no autopilot. It gives tables and
// clusters a uniform stats surface for metrics exporters (the serving
// tier's /metrics endpoint reads it through one interface).
func (t *Table) AutopilotStats() AutopilotStats {
	if t.ap == nil {
		return AutopilotStats{}
	}
	return t.ap.Stats()
}

// NumFields returns the dimensionality of the table's rule-set — the field
// count every Lookup packet must carry. Fixed at build time.
func (t *Table) NumFields() int { return t.eng.NumFields() }

// Health reports the table's serving condition. A closed table is Failed;
// an open one is Healthy unless its autopilot is accumulating consecutive
// retrain or persist failures, which degrade it with machine-readable
// reasons ("retrain-failing", "persist-failing"). Degraded never implies
// wrong answers — the fail-static guarantee means lookups keep serving the
// last good state; it means the state may be growing stale.
func (t *Table) Health() Health {
	if t.closed.Load() {
		return Health{State: Failed, Reasons: []HealthReason{{Shard: -1, Code: "closed", Detail: "table is closed"}}}
	}
	if t.ap == nil {
		return Health{State: Healthy}
	}
	return core.EngineHealth(t.ap.Stats())
}

// Engine exposes the underlying engine. The pointer is stable for the
// table's lifetime (retrains swap state behind it).
//
// Deprecated: new code should use the Table methods directly.
func (t *Table) Engine() *Engine { return t.eng }

// Stats returns the most recent (re)build's statistics.
func (t *Table) Stats() BuildStats { return t.eng.Stats() }

// Updates returns the drift accumulated since the last (re)build.
func (t *Table) Updates() UpdateStats { return t.eng.Updates() }

// NumISets returns the number of trained RQ-RMI models currently serving.
func (t *Table) NumISets() int { return t.eng.NumISets() }

// Name implements Classifier.
func (t *Table) Name() string { return t.eng.Name() }

// MemoryFootprint implements Classifier: model bytes plus the remainder's
// index (§5.2.1 accounting).
func (t *Table) MemoryFootprint() int { return t.eng.MemoryFootprint() }

// RQRMIBytes returns the trained models' size alone (Figure 13's "iSets").
func (t *Table) RQRMIBytes() int { return t.eng.RQRMIBytes() }

// RemainderBytes returns the remainder index size (Figure 13's
// "Remainder").
func (t *Table) RemainderBytes() int { return t.eng.RemainderBytes() }

// Close stops the autopilot watcher, waiting out any in-flight retrain.
// Idempotent; concurrent lookups are unaffected and remain valid after
// Close, while subsequent updates fail with ErrClosed.
func (t *Table) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	if t.ap != nil {
		t.ap.Stop()
	}
	return nil
}

var _ Classifier = (*Table)(nil)
var _ BoundedClassifier = (*Table)(nil)
