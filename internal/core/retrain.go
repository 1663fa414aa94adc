package core

import (
	"errors"
	"fmt"
	"time"

	"nuevomatch/internal/faultinject"
	"nuevomatch/internal/rules"
)

// This file implements in-place retraining: the §3.9 periodic retrain as a
// hot swap on a live engine, so callers never re-point to a new engine.
// Retrain trains a replacement engine on a background goroutine-friendly
// path (no locks held during training), journals every update that
// arrives while training runs, replays the journal onto the replacement,
// and publishes the retrained state through the engine's
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
	us := e.updateStatsLocked()
	st.RulesBefore, st.CoverageBefore = us.LiveRules, 1-us.RemainderFraction
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
	// broken; in that case keep serving the old state.
	if err := faultinject.Hit(faultinject.PointRetrainReplay); err != nil {
		return st, fmt.Errorf("core: retrain replay: %w", err)
	}
	if err := replayJournal(fresh, journal); err != nil {
		return st, fmt.Errorf("core: retrain replay: %w", err)
	}
	st.Replayed = len(journal)
	e.adoptLocked(fresh)
	st.SwapTime = time.Since(t1)
	us = e.updateStatsLocked()
	st.RulesAfter, st.CoverageAfter = us.LiveRules, 1-us.RemainderFraction
	return st, nil
}

// replayJournal applies the journal to the freshly built replacement
// engine: each op runs the apply step its serving update ran
// (applyInsertLocked / applyDeleteLocked), in journal order, and the
// remainder is re-frozen once at the end. fresh is private to the retrain
// (it never escaped Build), so no op touches the overlay or publishes:
// exactly one snapshot publication happens, in adoptLocked, after the
// journal is in. The whole replay costs O(journal + remainder), not the
// O(journal × remainder) of per-op copy-on-write. The drift counters count
// every journaled op, as the serving engine did: each is real post-build
// drift and keeps counting toward the next retrain trigger. Journaled rules
// were cloned, so the replacement may retain them.
func replayJournal(fresh *Engine, journal []journalOp) error {
	if len(journal) == 0 {
		return nil
	}
	for _, op := range journal {
		var err error
		if op.del {
			_, err = fresh.applyDeleteLocked(op.id)
		} else {
			err = fresh.applyInsertLocked(op.rule)
		}
		if err != nil {
			return err
		}
	}
	fresh.refreezeRemainderLocked()
	return nil
}

// adoptLocked moves the retrained engine's entire state — write side and
// read side — into e and publishes it. f is private to the caller (it never
// escaped Build/replay), so its fields can be adopted without locking it.
func (e *Engine) adoptLocked(f *Engine) {
	e.opts = f.opts
	e.rs = f.rs
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
