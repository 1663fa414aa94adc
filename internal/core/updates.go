package core

import (
	"fmt"
	"math"

	"nuevomatch/internal/rules"
)

// This file implements the update model of §3.9 on the write side of the
// RCU split:
//
//   - rule deletions of iSet-indexed rules are served by publishing a
//     snapshot whose iSet liveness bitset marks the entry dead (copy-on-write
//     of one bit per iSet entry — the shared RQ-RMI models and rule
//     records are never mutated);
//   - rule additions and matching-set changes always go to the remainder,
//     which must support fast updates (TupleMerge and RVH do) and is
//     served to lookups through its frozen form plus the update overlay;
//   - the remainder therefore grows over time, degrading throughput, and
//     Retrain (retrain.go) retrains the models over the current live rules
//     — the paper's periodic retraining.
//
// Every update publishes a fresh snapshot with a single atomic store.
// Readers that loaded the previous snapshot finish against a consistent
// view; readers arriving after the store see the update. Updates serialize
// on e.mu, which lookups never touch.

// UpdateStats tracks the drift since the last (re)build.
type UpdateStats struct {
	// Inserted counts rules added to the remainder since build.
	Inserted int
	// DeletedFromISets counts iSet rules marked dead in the snapshot
	// liveness bitset.
	DeletedFromISets int
	// DeletedFromRemainder counts deletions served by the remainder.
	DeletedFromRemainder int
	// OverlayCompactions counts how many times the remainder overlay was
	// folded back into a fresh frozen form.
	OverlayCompactions int
	// LiveRules is the current number of live rules.
	LiveRules int
	// RemainderFraction is the fraction of live rules not indexed by
	// RQ-RMIs; the paper retrains when it grows too large.
	RemainderFraction float64
}

// Updates returns the drift statistics since the last build.
func (e *Engine) Updates() UpdateStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.updateStatsLocked()
}

func (e *Engine) updateStatsLocked() UpdateStats {
	s := e.ustats
	s.LiveRules = len(e.inISet) + len(e.remPos)
	// Every inISet entry is live: deletions remove the entry (Delete's iSet
	// branch), so the covered count is the map's size — O(1), which matters
	// because the autopilot polls Updates() under the write lock.
	if s.LiveRules > 0 {
		s.RemainderFraction = 1 - float64(len(e.inISet))/float64(s.LiveRules)
	}
	return s
}

// isLiveLocked reports whether id is a live rule: an iSet member or a
// remainder rule, two disjoint sets.
func (e *Engine) isLiveLocked(id int) bool {
	_, inISet := e.inISet[id]
	_, inRemainder := e.remPos[id]
	return inISet || inRemainder
}

// Every update runs in two steps:
//
//   - the apply step checks it (unknown ID, duplicate ID, field count and
//     ranges) and changes the write-side state: the iSet liveness bit
//     with inISet, or the remainder classifier with remainderRules/remPos,
//     and the drift counters;
//   - the delta step carries the change to readers: the overlay's
//     withAdd/withDelete, its compaction, and the retrain journal.
//
// Insert, Delete and Modify run both steps and publish. Retrain's replay
// (retrain.go) runs the apply step alone on its private replacement and
// re-freezes the remainder once.

// Insert adds a new rule. Per §3.9 additions always go to the remainder;
// the remainder classifier must implement rules.Updatable.
func (e *Engine) Insert(r rules.Rule) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.insertLocked(r); err != nil {
		return err
	}
	e.publishLocked()
	return nil
}

// checkRuleLocked rejects what Build's Validate would: an invalid live rule
// otherwise poisons every future Retrain while still being served.
func (e *Engine) checkRuleLocked(r rules.Rule) error {
	if len(r.Fields) != e.rs.NumFields {
		return fmt.Errorf("core: rule has %d fields, engine expects %d", len(r.Fields), e.rs.NumFields)
	}
	for d, f := range r.Fields {
		if !f.Valid() {
			return fmt.Errorf("core: rule %d field %d has Lo %d > Hi %d", r.ID, d, f.Lo, f.Hi)
		}
	}
	return nil
}

// updatableLocked returns the remainder's update interface.
func (e *Engine) updatableLocked() (rules.Updatable, error) {
	upd, ok := e.remainder.(rules.Updatable)
	if !ok {
		return nil, fmt.Errorf("core: remainder classifier %q does not support updates", e.remainder.Name())
	}
	return upd, nil
}

// insertLocked runs an insert's apply and delta steps, without publishing.
func (e *Engine) insertLocked(r rules.Rule) error {
	if err := e.applyInsertLocked(r); err != nil {
		return err
	}
	e.remOverlay = e.remOverlay.withAdd(r)
	e.maybeCompactOverlayLocked()
	e.journalInsertLocked(r)
	return nil
}

// applyInsertLocked is an insert's apply step: the checked, non-duplicate
// rule r goes to the remainder classifier and the remainder list. It costs
// O(rule); the ID table waits for the next freeze.
func (e *Engine) applyInsertLocked(r rules.Rule) error {
	if err := e.checkRuleLocked(r); err != nil {
		return err
	}
	if e.isLiveLocked(r.ID) {
		return fmt.Errorf("core: duplicate rule ID %d", r.ID)
	}
	upd, err := e.updatableLocked()
	if err != nil {
		return err
	}
	if err := upd.Insert(r); err != nil {
		return err
	}
	e.remPos[r.ID] = len(e.remainderRules.Rules)
	e.remainderRules.Add(r)
	e.ustats.Inserted++
	return nil
}

// maybeCompactOverlayLocked re-freezes the remainder once the overlay delta
// outgrows the threshold, folding additions into the compiled tables and
// retiring the deletion skip list. The O(remainder) compaction thus runs
// once per threshold updates; the copy-on-write discipline means snapshots
// published before the compaction stay valid.
func (e *Engine) maybeCompactOverlayLocked() {
	if e.remOverlay.size() > overlayCompactThreshold {
		e.refreezeRemainderLocked()
		e.ustats.OverlayCompactions++
	}
}

// Delete removes a rule by ID. Rules indexed by an RQ-RMI are marked dead in
// a copy of their iSet's liveness bitset — no retraining and no mutation
// of shared model arrays — and remainder rules are deleted from the
// external classifier directly.
func (e *Engine) Delete(id int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.deleteLocked(id); err != nil {
		return err
	}
	e.publishLocked()
	return nil
}

// deleteLocked runs a delete's apply and delta steps, without publishing.
// An iSet rule needs no delta: its cleared liveness bit is the change.
func (e *Engine) deleteLocked(id int) error {
	fromRemainder, err := e.applyDeleteLocked(id)
	if err != nil {
		return err
	}
	if fromRemainder {
		e.remOverlay = e.remOverlay.withDelete(id)
		e.maybeCompactOverlayLocked()
	}
	e.journalDeleteLocked(id)
	return nil
}

// applyDeleteLocked is a delete's apply step. It reports whether the rule
// was a remainder rule.
func (e *Engine) applyDeleteLocked(id int) (fromRemainder bool, err error) {
	if !e.isLiveLocked(id) {
		return false, fmt.Errorf("core: no live rule with ID %d", id)
	}
	if ent, inModel := e.inISet[id]; inModel {
		e.clearLiveLocked(ent)
		delete(e.inISet, id)
		e.ustats.DeletedFromISets++
	} else {
		upd, err := e.updatableLocked()
		if err != nil {
			return false, err
		}
		if err := upd.Delete(id); err != nil {
			return false, err
		}
		e.removeRemainderRuleLocked(id)
		e.ustats.DeletedFromRemainder++
		fromRemainder = true
	}
	return fromRemainder, nil
}

// clearLiveLocked marks iSet entry ent dead. Published snapshots share the
// isets slice and its liveness bitsets, so the first clear after a publish
// copies them (entries/8 bytes in all) and later clears before the next
// publish — a Modify's, or a whole Retrain replay's — write that copy.
// Concurrent readers therefore never observe a torn write.
func (e *Engine) clearLiveLocked(ent isetEntry) {
	if !e.isetsPrivate {
		n := 0
		for i := range e.isets {
			n += len(e.isets[i].live)
		}
		bits := make([]byte, 0, n)
		isets := append([]isetIndex(nil), e.isets...)
		for i := range isets {
			bits = append(bits, isets[i].live...)
			isets[i].live = bits[len(bits)-len(isets[i].live):]
		}
		e.isets, e.isetsPrivate = isets, true
	}
	e.isets[ent.iset].live[ent.entry/8] &^= 1 << (ent.entry % 8)
}

// removeRemainderRuleLocked swap-removes rule id from the remainder list:
// the last rule takes its slot. The list order stays a deterministic
// function of the update sequence, which Save and Retrain's input follow.
func (e *Engine) removeRemainderRuleLocked(id int) {
	i, ok := e.remPos[id]
	if !ok {
		return
	}
	rr := e.remainderRules
	last := len(rr.Rules) - 1
	if i != last {
		rr.Rules[i] = rr.Rules[last]
		e.remPos[rr.Rules[i].ID] = i
	}
	rr.Rules[last] = rules.Rule{}
	rr.Rules = rr.Rules[:last]
	delete(e.remPos, id)
}

// Modify changes a rule's matching set or priority: per §3.9 this is a
// delete followed by an insert into the remainder. The replacement is
// checked before anything changes, and both halves publish as one
// snapshot, so readers see either the old rule or the new one. The journal
// still records a delete and an insert, which Retrain's replay expects.
func (e *Engine) Modify(r rules.Rule) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.isLiveLocked(r.ID) {
		return fmt.Errorf("core: no live rule with ID %d", r.ID)
	}
	if err := e.checkRuleLocked(r); err != nil {
		return err
	}
	if _, err := e.updatableLocked(); err != nil {
		return err
	}
	if err := e.deleteLocked(r.ID); err != nil {
		return err
	}
	err := e.insertLocked(r)
	e.publishLocked()
	return err
}

// LiveRuleSet snapshots the current live rules (build survivors plus
// inserts), the input Retrain trains on: every remainder rule, then the
// built rules that still have an iSet entry, in built order. A built rule
// that was modified (delete + reinsert, §3.9) lives on in the remainder
// with its *new* matching set; its stale build-time copy has no iSet entry
// and does not resurface.
func (e *Engine) LiveRuleSet() *rules.RuleSet {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.liveRuleSetLocked()
}

func (e *Engine) liveRuleSetLocked() *rules.RuleSet {
	out := rules.NewRuleSet(e.rs.NumFields)
	for i := range e.remainderRules.Rules {
		r := e.remainderRules.Rules[i]
		r.Fields = append([]rules.Range(nil), r.Fields...)
		out.Add(r)
	}
	for i := range e.rs.Rules {
		if _, ok := e.inISet[e.rs.Rules[i].ID]; ok {
			r := e.rs.Rules[i]
			r.Fields = append([]rules.Range(nil), r.Fields...)
			out.Add(r)
		}
	}
	return out
}

// SustainedUpdateModel evaluates the analytic update model of §3.9: after u
// uniformly distributed updates against r rules, the expected fraction of
// rules still served by the RQ-RMIs is e^(-u/r), and throughput behaves as a
// weighted average between the accelerated and remainder-only rates.
func SustainedUpdateModel(r, u float64, acceleratedThroughput, remainderThroughput float64) float64 {
	if r <= 0 {
		return remainderThroughput
	}
	unmodified := math.Exp(-u / r)
	return unmodified*acceleratedThroughput + (1-unmodified)*remainderThroughput
}
