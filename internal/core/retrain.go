package core

import (
	"errors"
	"fmt"
	"time"

	"nuevomatch/internal/faultinject"
	"nuevomatch/internal/rules"
)

// This file implements in-place retraining: the §3.9 periodic retrain as a
// hot swap on a live engine instead of the build-a-new-engine-and-repoint
// dance of Rebuild. Retrain trains a replacement engine on a background
// goroutine-friendly path (no locks held during training), journals every
// update that arrives while training runs, replays the journal onto the
// replacement, and publishes the retrained state through the engine's
// existing RCU snapshot pointer — so callers keep their *Engine, lookups
// stay zero-lock/zero-alloc throughout, and no reader ever observes a torn
// or stale state: before the single atomic store they see the drifted
// engine with all updates applied, after it the retrained engine with the
// same updates replayed.

// journalOp records one applied update for replay onto a retrained engine.
type journalOp struct {
	del  bool
	id   int // delete target
	rule rules.Rule
}

// journalInsertLocked records an applied insert for replay while a
// background retrain is in flight; no work (and no clone allocation)
// otherwise.
func (e *Engine) journalInsertLocked(r rules.Rule) {
	if e.retraining {
		e.journal = append(e.journal, journalOp{rule: cloneRule(r)})
	}
}

// journalDeleteLocked records an applied delete for replay while a
// background retrain is in flight.
func (e *Engine) journalDeleteLocked(id int) {
	if e.retraining {
		e.journal = append(e.journal, journalOp{del: true, id: id})
	}
}

// cloneRule deep-copies a rule so the journal does not alias caller-owned
// field slices.
func cloneRule(r rules.Rule) rules.Rule {
	r.Fields = append([]rules.Range(nil), r.Fields...)
	return r
}

// ErrRetrainInProgress is returned by Retrain when another retrain on the
// same engine has not finished yet.
var ErrRetrainInProgress = errors.New("core: retrain already in progress")

// RetrainStats reports one in-place retrain.
type RetrainStats struct {
	// TrainTime is the wall time of the background Build — lookups and
	// updates proceed normally for its whole duration.
	TrainTime time.Duration
	// SwapTime is the time the write lock was held to replay the journal and
	// publish the retrained snapshot. Lookups are lock-free and never blocked
	// even during the swap; SwapTime bounds only the update-side stall.
	SwapTime time.Duration
	// Replayed is the number of journaled updates applied to the retrained
	// state before publication.
	Replayed int
	// RulesBefore/RulesAfter are the live rule counts around the retrain.
	RulesBefore, RulesAfter int
	// CoverageBefore is the fraction of live rules the RQ-RMIs served when
	// the retrain started; CoverageAfter the fraction after the swap.
	CoverageBefore, CoverageAfter float64
}

// Retrain retrains the engine in place over its current live rules — the
// paper's periodic retraining (§3.9, Figure 7) as a hot swap. Training runs
// without holding the write lock: concurrent Insert/Delete/Modify keep
// landing on the serving state and are journaled; once the replacement is
// trained the journal is replayed onto it under the write lock and the
// result is published with one atomic snapshot store. Concurrent lookups
// never stall and always observe either the pre-swap state (with every
// update applied) or the post-swap state (with the same updates replayed).
// At most one Retrain may be in flight per engine; concurrent calls fail
// with ErrRetrainInProgress.
func (e *Engine) Retrain() (RetrainStats, error) {
	return e.retrain(nil)
}

// RetrainWith retrains the engine in place like Retrain, but builds the
// replacement with the given options instead of the options the engine was
// built with. On success the engine adopts the new options for future
// retrains. The cluster's quarantine rebuilder uses this to upgrade a
// remainder-only fallback engine (Options{MaxISets: -1}) to a fully
// trained one without disturbing concurrent lookups.
func (e *Engine) RetrainWith(opts Options) (RetrainStats, error) {
	return e.retrain(&opts)
}

func (e *Engine) retrain(opts *Options) (RetrainStats, error) {
	var st RetrainStats
	e.mu.Lock()
	if e.retraining {
		e.mu.Unlock()
		return st, ErrRetrainInProgress
	}
	e.retraining = true
	live := e.liveRuleSetLocked()
	st.RulesBefore = len(e.live)
	st.CoverageBefore = 1 - e.updateStatsLocked().RemainderFraction
	if opts == nil {
		o := e.opts
		opts = &o
	}
	e.mu.Unlock()

	t0 := time.Now()
	var fresh *Engine
	err := faultinject.Hit(faultinject.PointRetrainBuild)
	if err == nil {
		fresh, err = Build(live, *opts)
	}
	st.TrainTime = time.Since(t0)

	e.mu.Lock()
	defer e.mu.Unlock()
	journal := e.journal
	e.journal, e.retraining = nil, false
	if err != nil {
		return st, fmt.Errorf("core: retrain build: %w", err)
	}
	t1 := time.Now()
	// Every journaled op was a valid transition on the serving engine and
	// the replacement was built from the exact rule set the journal starts
	// at, so replay cannot fail unless the engine's own bookkeeping is
	// broken; in that case keep serving the old state. The whole journal is
	// folded in as one bulk pass — O(journal + remainder), not O(journal ×
	// remainder) of per-op copy-on-write — because fresh is still private:
	// no snapshot of it is ever observed until adoptLocked publishes.
	if err := faultinject.Hit(faultinject.PointRetrainReplay); err != nil {
		return st, fmt.Errorf("core: retrain replay: %w", err)
	}
	if err := replayJournal(fresh, journal); err != nil {
		return st, fmt.Errorf("core: retrain replay: %w", err)
	}
	st.Replayed = len(journal)
	e.adoptLocked(fresh)
	st.SwapTime = time.Since(t1)
	st.RulesAfter = len(e.live)
	st.CoverageAfter = 1 - e.updateStatsLocked().RemainderFraction
	return st, nil
}

// netJournalEntry is the folded effect of every journaled op touching one
// rule ID: at most one deletion of a rule that pre-exists in the replacement
// build, and at most one surviving insert (later ops on the same ID collapse
// earlier ones — an insert followed by a delete vanishes, a delete followed
// by an insert is the §3.9 modify).
type netJournalEntry struct {
	id       int
	delBuilt bool
	insert   bool
	rule     rules.Rule
}

// replayJournal folds the journal into the freshly built replacement engine
// as one bulk pass instead of one public update per op. fresh is private to
// the retrain (it never escaped Build), so its state is edited directly and
// exactly one snapshot publication happens — in adoptLocked, after the
// journal is in. The drift counters count gross journal ops, matching what
// per-op replay recorded: every replayed op is real post-build drift and
// keeps counting toward the next retrain trigger.
func replayJournal(fresh *Engine, journal []journalOp) error {
	if len(journal) == 0 {
		return nil
	}

	// Pass 1: net effect per rule ID, in first-touch order.
	net := make(map[int]*netJournalEntry, len(journal))
	order := make([]*netJournalEntry, 0, len(journal))
	touch := func(id int) *netJournalEntry {
		n := net[id]
		if n == nil {
			n = &netJournalEntry{id: id}
			net[id] = n
			order = append(order, n)
		}
		return n
	}
	var grossIns, grossDelISet, grossDelRem int
	for _, op := range journal {
		if !op.del {
			n := touch(op.rule.ID)
			if n.insert {
				return fmt.Errorf("journal inserts rule %d twice", op.rule.ID)
			}
			n.insert = true
			n.rule = op.rule
			grossIns++
			continue
		}
		n := touch(op.id)
		switch {
		case n.insert:
			// Deleting a journal-inserted rule: both ops vanish. The insert
			// would have landed in the remainder, so that is where the
			// serving engine counted the delete.
			n.insert = false
			n.rule = rules.Rule{}
			grossDelRem++
		case n.delBuilt:
			return fmt.Errorf("journal deletes rule %d twice", op.id)
		default:
			n.delBuilt = true
			if _, inModel := fresh.inISet[op.id]; inModel {
				grossDelISet++
			} else {
				grossDelRem++
			}
		}
	}

	// Pass 2: deletions of pre-existing rules. iSet deletions clear the
	// liveness bit — in place, legal only because no snapshot of fresh is
	// live — and remainder deletions drop out of the classifier and the
	// remainder rule list in one filter.
	remDel := make(map[int]bool)
	for _, n := range order {
		if !n.delBuilt {
			continue
		}
		if !fresh.live[n.id] {
			return fmt.Errorf("journal deletes unknown rule %d", n.id)
		}
		if ent, inModel := fresh.inISet[n.id]; inModel {
			fresh.isets[ent.iset].live[ent.entry/8] &^= 1 << (ent.entry % 8)
			delete(fresh.inISet, n.id)
		} else {
			remDel[n.id] = true
		}
		delete(fresh.live, n.id)
	}
	var upd rules.Updatable
	if len(remDel) > 0 || grossIns > 0 {
		var ok bool
		if upd, ok = fresh.remainder.(rules.Updatable); !ok {
			return fmt.Errorf("remainder classifier %q does not support updates", fresh.remainder.Name())
		}
	}
	if len(remDel) > 0 {
		for id := range remDel {
			if err := upd.Delete(id); err != nil {
				return err
			}
		}
		kept := fresh.remainderRules.Rules[:0]
		for i := range fresh.remainderRules.Rules {
			if !remDel[fresh.remainderRules.Rules[i].ID] {
				kept = append(kept, fresh.remainderRules.Rules[i])
			}
		}
		fresh.remainderRules.Rules = kept
	}

	// Pass 3: surviving inserts, in journal order. Rules were cloned when
	// journaled, so they are safe to retain.
	for _, n := range order {
		if !n.insert {
			continue
		}
		r := n.rule
		if len(r.Fields) != fresh.rs.NumFields {
			return fmt.Errorf("journaled rule %d has %d fields, engine expects %d", r.ID, len(r.Fields), fresh.rs.NumFields)
		}
		if fresh.live[r.ID] {
			return fmt.Errorf("journaled rule %d duplicates a live ID", r.ID)
		}
		if err := upd.Insert(r); err != nil {
			return err
		}
		fresh.remainderRules.Add(r)
		fresh.live[r.ID] = true
	}

	// One bookkeeping rebuild instead of per-op maintenance: the ID index
	// and the frozen remainder are reconstructed once.
	fresh.remPos = fresh.remainderRules.IndexByID()
	fresh.refreezeRemainderLocked()
	fresh.ustats.Inserted += grossIns
	fresh.ustats.DeletedFromISets += grossDelISet
	fresh.ustats.DeletedFromRemainder += grossDelRem
	return nil
}

// adoptLocked moves the retrained engine's entire state — write side and
// read side — into e and publishes it. f is private to the caller (it never
// escaped Build/replay), so its fields can be adopted without locking it.
func (e *Engine) adoptLocked(f *Engine) {
	e.opts = f.opts
	e.rs = f.rs
	e.live = f.live
	e.isets = f.isets
	e.inISet = f.inISet
	e.remainder = f.remainder
	e.remainderRules = f.remainderRules
	e.remPos = f.remPos
	e.remFrozen, e.remOverlay = f.remFrozen, f.remOverlay
	e.stats = f.stats
	// The replacement's counters are exactly the replayed journal: those
	// updates are real post-build drift (they live in the new remainder),
	// so they must keep counting toward the next retrain trigger.
	e.ustats = f.ustats
	e.publishLocked()
}
