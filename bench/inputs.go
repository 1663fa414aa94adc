package main

import (
	"fmt"
	"math/rand"

	"nuevomatch"
	"nuevomatch/internal/classbench"
	"nuevomatch/internal/rules"
	"nuevomatch/internal/trace"
)

const (
	traceLen   = 1 << 18 // packets per trace
	oracleLen  = 4096    // leading trace packets also answered by the linear scan
	roundPkts  = 2048    // packets per lookup round, issued as 16 chunks of 128
	chunkPkts  = 128     // the engine's native batch width (rqrmi.BatchChunk)
	cycleRules = 40      // rules per phase of an update cycle (4 phases per cycle)

	// Fresh rule IDs live far above any generated ID.
	driftIDBase = 1 << 24
	cycleIDBase = 1 << 25
)

// inputs is everything a run feeds the system, derived from the workload and
// the seed alone.
type inputs struct {
	w    workload
	rs   *rules.RuleSet
	pkts []rules.Packet

	// oracle answers of the linear scan for pkts[:oracleLen]: on the pristine
	// rules and on the rules after drift.
	wantPristine []int
	wantDrifted  []int

	// drift for table B.
	driftDel []int
	driftAdd []rules.Rule

	// update cycle on table C: delete victims, insert fresh, delete fresh,
	// re-insert victims. The rule set returns to where it started.
	victims []rules.Rule
	fresh   []rules.Rule
}

// makeInputs generates rules, trace, drift and update plans.
//
// What is the workload's identity is fixed by the workload alone: the rules,
// which rule each trace packet targets (so, on the Zipf trace, which rules
// are hot), which rules drift and which rules cycle. Measured on identical
// code, redrawing those per seed moved classify_mpps by 25 % (fw5 Zipf: three
// rules carry 37 % of the packets) to 80 % (ipc1) between seeds, which would
// make every bound meaningless (NOISE.md). The seed draws what averages out:
// the order of the trace and the point each packet takes inside its rule.
//
// Priorities are rewritten to even numbers in generation order so that rules
// added later can take distinct odd priorities anywhere in the order: with
// unique priorities the linear scan is an exact oracle (ties would be broken
// differently by different classifiers).
func makeInputs(w workload, seed int64) (*inputs, error) {
	prof, err := classbench.ProfileByName(w.profile)
	if err != nil {
		return nil, err
	}
	rs := classbench.Generate(prof, w.rules)
	for i := range rs.Rules {
		rs.Rules[i].Priority = int32(2 * (i + 1))
	}
	fixed := rand.New(rand.NewSource(prof.Seed))
	drawn := rand.New(rand.NewSource(seed*2654435761 + 97))

	in := &inputs{w: w, rs: rs}
	var sources []int
	if w.zipf {
		tr, err := trace.Zipf(fixed, rs, traceLen, trace.Zipf95)
		if err != nil {
			return nil, err
		}
		sources = tr.Sources
	} else {
		sources = trace.Uniform(fixed, rs, traceLen).Sources
	}
	drawn.Shuffle(len(sources), func(i, j int) { sources[i], sources[j] = sources[j], sources[i] })
	in.pkts = make([]rules.Packet, traceLen)
	for i, ri := range sources {
		in.pkts[i] = classbench.MatchingPacket(drawn, &rs.Rules[ri])
	}

	// New rules (drift inserts and cycle inserts) come from the same
	// application profile under another seed, so they look like the table's
	// own rules without duplicating them.
	nDrift := w.rules * w.driftPct / 100
	prof.Seed += 104729
	pool := classbench.Generate(prof, nDrift+cycleRules)
	slots := fixed.Perm(w.rules) // distinct odd priorities 2k+1
	for i := range pool.Rules {
		r := pool.Rules[i]
		r.Priority = int32(2*slots[i] + 1)
		if i < nDrift {
			r.ID = driftIDBase + i
			in.driftAdd = append(in.driftAdd, r)
		} else {
			r.ID = cycleIDBase + i - nDrift
			in.fresh = append(in.fresh, r)
		}
	}
	// Drift deletes and cycle victims are disjoint random existing rules.
	picks := fixed.Perm(w.rules)
	for _, pos := range picks[:nDrift] {
		in.driftDel = append(in.driftDel, rs.Rules[pos].ID)
	}
	for _, pos := range picks[nDrift : nDrift+cycleRules] {
		in.victims = append(in.victims, rs.Rules[pos])
	}

	in.wantPristine = oracle(rs, in.pkts[:oracleLen])
	in.wantDrifted = oracle(in.driftedRules(), in.pkts[:oracleLen])
	return in, nil
}

// driftedRules is the rule-set table B must answer like after applyDrift.
func (in *inputs) driftedRules() *rules.RuleSet {
	gone := make(map[int]bool, len(in.driftDel))
	for _, id := range in.driftDel {
		gone[id] = true
	}
	out := rules.NewRuleSet(in.rs.NumFields)
	for i := range in.rs.Rules {
		if !gone[in.rs.Rules[i].ID] {
			out.Add(in.rs.Rules[i])
		}
	}
	for _, r := range in.driftAdd {
		out.Add(r)
	}
	return out
}

func oracle(rs *rules.RuleSet, pkts []rules.Packet) []int {
	want := make([]int, len(pkts))
	for i, p := range pkts {
		want[i] = rs.MatchID(p)
	}
	return want
}

// applyDrift moves table B away from its trained state through the public
// update calls: deletes first, then inserts, interleaved one for one so the
// overlay compacts the way it would under live churn.
func (in *inputs) applyDrift(b *nuevomatch.Table) error {
	for i := range in.driftDel {
		if err := b.Delete(in.driftDel[i]); err != nil {
			return fmt.Errorf("drift delete: %w", err)
		}
		if err := b.Insert(in.driftAdd[i]); err != nil {
			return fmt.Errorf("drift insert: %w", err)
		}
	}
	return nil
}
