package core

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/classifiers/tuplemerge"
	"nuevomatch/internal/rules"
)

// churnDriver runs an interleaved insert/delete/lookup workload against an
// engine while maintaining an exact linear-reference mirror. All rules ever
// live carry unique priorities, so engine results must equal the mirror's
// MatchID exactly — no tie ambiguity.
type churnDriver struct {
	t      *testing.T
	e      *Engine
	mirror *rules.RuleSet
	pool   []rules.Rule // insert pool, unique IDs and priorities pre-assigned
	rng    *rand.Rand

	ops, lookups, inserts, deletes int
	verifyStride                   int // verify every Nth lookup (1 = all)
}

// newChurnDriver builds a ClassBench rule-set of the profile, re-maps its
// priorities onto the even numbers, and prepares an insert pool on the odd
// numbers, so churned-in rules interleave with (and can beat) built rules
// while priorities stay globally unique.
func newChurnDriver(t *testing.T, prof classbench.Profile, size, poolSize int, opts Options, seed int64) *churnDriver {
	t.Helper()
	all := classbench.Generate(prof, size+poolSize)
	base := rules.NewRuleSet(all.NumFields)
	for i := 0; i < size; i++ {
		r := all.Rules[i]
		r.Priority = int32(2 * (i + 1))
		base.Add(r)
	}
	pool := make([]rules.Rule, 0, poolSize)
	for i := size; i < size+poolSize; i++ {
		r := all.Rules[i]
		r.ID = 1_000_000 + i
		r.Priority = int32(2*(i-size) + 1) // odd: interleaves with the even built priorities
		pool = append(pool, r)
	}
	e, err := Build(base, opts)
	if err != nil {
		t.Fatalf("%s: build: %v", prof.Name, err)
	}
	return &churnDriver{
		t: t, e: e, mirror: base.Clone(), pool: pool,
		rng: rand.New(rand.NewSource(seed)), verifyStride: 1,
	}
}

// step performs one workload operation. Lookups are verified against the
// mirror (every verifyStride-th); inserts draw from the pool; deletes pick a
// random live rule.
func (d *churnDriver) step() {
	d.ops++
	switch x := d.rng.Float64(); {
	case x < 0.60:
		d.lookups++
		p := d.packet()
		got := d.e.Lookup(p)
		if d.verifyStride > 0 && d.lookups%d.verifyStride == 0 {
			if want := d.mirror.MatchID(p); got != want {
				d.t.Fatalf("op %d: Lookup(%v) = %d, want %d", d.ops, p, got, want)
			}
		}
	case x < 0.80 && len(d.pool) > 0:
		r := d.pool[len(d.pool)-1]
		d.pool = d.pool[:len(d.pool)-1]
		if err := d.e.Insert(r); err != nil {
			d.t.Fatalf("op %d: insert %d: %v", d.ops, r.ID, err)
		}
		d.mirror.Add(r)
		d.inserts++
	default:
		if d.mirror.Len() <= 16 {
			return
		}
		i := d.rng.Intn(d.mirror.Len())
		id := d.mirror.Rules[i].ID
		if err := d.e.Delete(id); err != nil {
			d.t.Fatalf("op %d: delete %d: %v", d.ops, id, err)
		}
		d.mirror.Rules[i] = d.mirror.Rules[d.mirror.Len()-1]
		d.mirror.Rules = d.mirror.Rules[:d.mirror.Len()-1]
		d.deletes++
	}
}

// packet draws a probe biased toward matching a live rule.
func (d *churnDriver) packet() rules.Packet {
	p := make(rules.Packet, d.mirror.NumFields)
	if d.mirror.Len() > 0 && d.rng.Intn(4) != 0 {
		classbench.FillMatchingPacket(d.rng, &d.mirror.Rules[d.rng.Intn(d.mirror.Len())], p)
		return p
	}
	for i := range p {
		p[i] = d.rng.Uint32()
	}
	return p
}

// verifySweep checks scalar and batched lookups against the mirror over n
// fresh probes.
func (d *churnDriver) verifySweep(n int) {
	d.t.Helper()
	pkts := make([]rules.Packet, n)
	want := make([]int, n)
	for i := range pkts {
		pkts[i] = d.packet()
		want[i] = d.mirror.MatchID(pkts[i])
	}
	out := make([]int, n)
	d.e.LookupBatch(pkts, out)
	for i := range pkts {
		if got := d.e.Lookup(pkts[i]); got != want[i] {
			d.t.Fatalf("sweep: Lookup(%v) = %d, want %d", pkts[i], got, want[i])
		}
		if out[i] != want[i] {
			d.t.Fatalf("sweep: LookupBatch[%d] = %d, want %d", i, out[i], want[i])
		}
	}
}

func TestRetrainInPlaceRestoresCoverage(t *testing.T) {
	prof, err := classbench.ProfileByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	d := newChurnDriver(t, prof, 500, 400, fastOpts(), 21)
	for i := 0; i < 2500; i++ {
		d.step()
	}
	before := d.e.Updates()
	if before.Inserted == 0 || before.DeletedFromISets+before.DeletedFromRemainder == 0 {
		t.Fatalf("churn applied no updates: %+v", before)
	}
	st, err := d.e.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 0 {
		t.Errorf("Replayed = %d, want 0 without concurrent updates", st.Replayed)
	}
	if st.RulesBefore != st.RulesAfter {
		t.Errorf("rule count changed across retrain: %d -> %d", st.RulesBefore, st.RulesAfter)
	}
	after := d.e.Updates()
	if after.Inserted != 0 || after.DeletedFromISets != 0 || after.DeletedFromRemainder != 0 {
		t.Errorf("drift counters not reset after retrain: %+v", after)
	}
	if after.RemainderFraction > before.RemainderFraction {
		t.Errorf("retrain did not improve remainder fraction: %.3f -> %.3f",
			before.RemainderFraction, after.RemainderFraction)
	}
	d.verifySweep(600)
	// The engine must remain updatable and correct after the swap.
	for i := 0; i < 1000; i++ {
		d.step()
	}
	d.verifySweep(300)
}

// gatedBuilder wraps TupleMerge so a test can hold a retrain's Build open
// (to inject concurrent updates into the journal) or fail it on demand.
type gatedBuilder struct {
	armed   atomic.Bool
	fail    atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newGatedBuilder() *gatedBuilder {
	return &gatedBuilder{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedBuilder) build(rs *rules.RuleSet) (rules.Classifier, error) {
	if g.fail.Load() {
		return nil, errors.New("gated: forced remainder failure")
	}
	if g.armed.Load() {
		g.entered <- struct{}{}
		<-g.release
	}
	return tuplemerge.Build(rs)
}

func TestRetrainJournalsAndReplaysConcurrentUpdates(t *testing.T) {
	prof, err := classbench.ProfileByName("fw1")
	if err != nil {
		t.Fatal(err)
	}
	g := newGatedBuilder()
	opts := fastOpts()
	opts.Remainder = g.build
	d := newChurnDriver(t, prof, 400, 600, opts, 31)
	for i := 0; i < 800; i++ {
		d.step()
	}

	g.armed.Store(true)
	type result struct {
		st  RetrainStats
		err error
	}
	res := make(chan result, 1)
	go func() {
		st, err := d.e.Retrain()
		res <- result{st, err}
	}()
	<-g.entered // background Build is now mid-training, journal armed

	// A second retrain must refuse while one is in flight.
	if _, err := d.e.Retrain(); !errors.Is(err, ErrRetrainInProgress) {
		t.Errorf("concurrent Retrain error = %v, want ErrRetrainInProgress", err)
	}

	// Updates and lookups keep flowing against the serving state.
	insertsBefore, deletesBefore := d.inserts, d.deletes
	for i := 0; i < 400; i++ {
		d.step()
	}
	journaled := (d.inserts - insertsBefore) + (d.deletes - deletesBefore)
	if journaled == 0 {
		t.Fatal("churn produced no updates to journal")
	}

	g.armed.Store(false)
	close(g.release)
	r := <-res
	if r.err != nil {
		t.Fatalf("retrain: %v", r.err)
	}
	if r.st.Replayed != journaled {
		t.Errorf("Replayed = %d, want %d", r.st.Replayed, journaled)
	}
	// Replayed updates are real post-swap drift: the counters must carry
	// them (not reset to zero) so the next retrain trigger fires on time.
	us := d.e.Updates()
	if got := us.Inserted + us.DeletedFromISets + us.DeletedFromRemainder; got != journaled {
		t.Errorf("post-swap drift counters = %d, want %d (the replayed journal)", got, journaled)
	}
	d.verifySweep(500)
	for i := 0; i < 500; i++ {
		d.step()
	}
	d.verifySweep(300)
}

func TestRetrainFailureKeepsServingState(t *testing.T) {
	prof, err := classbench.ProfileByName("ipc1")
	if err != nil {
		t.Fatal(err)
	}
	g := newGatedBuilder()
	opts := fastOpts()
	opts.Remainder = g.build
	d := newChurnDriver(t, prof, 300, 300, opts, 41)
	for i := 0; i < 600; i++ {
		d.step()
	}
	g.fail.Store(true)
	if _, err := d.e.Retrain(); err == nil {
		t.Fatal("retrain with failing remainder builder must error")
	}
	// The drifted state keeps serving, updates still apply, and a later
	// retrain succeeds (journal and retraining flag were cleaned up).
	d.verifySweep(300)
	for i := 0; i < 300; i++ {
		d.step()
	}
	g.fail.Store(false)
	if _, err := d.e.Retrain(); err != nil {
		t.Fatalf("retrain after failure: %v", err)
	}
	d.verifySweep(300)
}

func TestAutopilotBacksOffAfterFailedRetrain(t *testing.T) {
	prof, err := classbench.ProfileByName("acl3")
	if err != nil {
		t.Fatal(err)
	}
	g := newGatedBuilder()
	opts := fastOpts()
	opts.Remainder = g.build
	d := newChurnDriver(t, prof, 200, 300, opts, 91)
	for d.inserts+d.deletes < 60 {
		d.step()
	}
	g.fail.Store(true)
	ap := NewAutopilot(d.e, AutopilotPolicy{MaxUpdates: 50, MinLiveRules: 1, Interval: time.Hour})
	if _, err := ap.Check(); err == nil {
		t.Fatal("first tripped check must surface the retrain failure")
	}
	// The drift is still tripped, but the exponential failure backoff
	// must suppress watcher-style re-attempts instead of relaunching a
	// doomed training run on every poll.
	for i := 0; i < 5; i++ {
		if retrained, err := ap.Check(); err != nil || retrained {
			t.Fatalf("backoff check %d: (%v, %v), want suppressed", i, retrained, err)
		}
	}
	if st := ap.Stats(); st.Failures != 1 {
		t.Fatalf("Failures = %d, want 1 (backoff must prevent retry storms)", st.Failures)
	}
	// Watcher-disabled mode has no backoff: every manual Check is an
	// explicit caller decision and retries immediately.
	manual := NewAutopilot(d.e, AutopilotPolicy{MaxUpdates: 50, MinLiveRules: 1, Interval: -1})
	for i := 0; i < 2; i++ {
		if _, err := manual.Check(); err == nil {
			t.Fatalf("manual check %d: want retrain failure", i)
		}
	}
	if st := manual.Stats(); st.Failures != 2 {
		t.Fatalf("manual Failures = %d, want 2", st.Failures)
	}
	// Once the builder recovers, the backed-off autopilot... still sits in
	// its backoff window (Interval=1h), but a fresh supervisor retrains and
	// the engine swaps cleanly.
	g.fail.Store(false)
	ok := NewAutopilot(d.e, AutopilotPolicy{MaxUpdates: 50, MinLiveRules: 1})
	if retrained, err := ok.Check(); err != nil || !retrained {
		t.Fatalf("recovered check: (%v, %v), want retrain", retrained, err)
	}
	d.verifySweep(300)
}

func TestInsertRejectsInvalidRange(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	rs := structuredRuleSet(rng, 120)
	e, err := Build(rs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	bad := rules.Rule{ID: 99999, Priority: 1, Fields: []rules.Range{
		{Lo: 10, Hi: 5}, rules.FullRange(), rules.FullRange(), rules.FullRange(), rules.FullRange(),
	}}
	if err := e.Insert(bad); err == nil {
		t.Fatal("Insert must reject Lo > Hi: an invalid live rule would poison every future Retrain")
	}
	// The engine stays consistent and retrainable.
	if _, err := e.Retrain(); err != nil {
		t.Fatalf("retrain after rejected insert: %v", err)
	}
}

func TestAutopilotPolicyEvaluate(t *testing.T) {
	p := AutopilotPolicy{}.withDefaults()
	if reason, trip := p.evaluate(UpdateStats{LiveRules: 10, Inserted: 1 << 20}, 0, fracHysteresis); trip {
		t.Errorf("tripped below MinLiveRules: %s", reason)
	}
	if _, trip := p.evaluate(UpdateStats{LiveRules: 1000, Inserted: p.MaxUpdates}, 0, fracHysteresis); !trip {
		t.Error("MaxUpdates must trip")
	}
	if _, trip := p.evaluate(UpdateStats{LiveRules: 1000, RemainderFraction: 0.9}, 0, fracHysteresis); !trip {
		t.Error("MaxRemainderFraction must trip")
	}
	if _, trip := p.evaluate(UpdateStats{LiveRules: 1000, OverlayCompactions: 99}, 0, fracHysteresis); !trip {
		t.Error("MaxOverlayCompactions must trip")
	}
	if _, trip := p.evaluate(UpdateStats{LiveRules: 1000, Inserted: p.MaxUpdates - 1}, 0, fracHysteresis); trip {
		t.Error("must not trip below every threshold")
	}
	// Hysteresis: a fraction above the ceiling but within fracHysteresis of
	// what the last build achieved must NOT trip — retraining cannot improve
	// it and would loop.
	if reason, trip := p.evaluate(UpdateStats{LiveRules: 1000, RemainderFraction: 0.55}, 0.52, fracHysteresis); trip {
		t.Errorf("fraction within hysteresis of the build floor tripped: %s", reason)
	}
	if _, trip := p.evaluate(UpdateStats{LiveRules: 1000, RemainderFraction: 0.58}, 0.52, fracHysteresis); !trip {
		t.Error("fraction decayed past hysteresis must trip")
	}
	off := AutopilotPolicy{MaxUpdates: -1, MaxRemainderFraction: -1, MaxOverlayCompactions: -1, MinLiveRules: -1}.withDefaults()
	if reason, trip := off.evaluate(UpdateStats{LiveRules: 1000, Inserted: 1 << 20, RemainderFraction: 1, OverlayCompactions: 1 << 20}, 0, fracHysteresis); trip {
		t.Errorf("disabled policy tripped: %s", reason)
	}
}

// TestAutopilotNoThrashOnUnreachableCeiling is the regression for the
// default-policy thrash hazard: when a fresh build already sits above the
// MaxRemainderFraction ceiling (wildcard-heavy rule-sets train that way),
// the coverage trigger must not fire at all — retraining cannot help — and
// after a genuine retrain it must not re-fire until real decay accumulates.
func TestAutopilotNoThrashOnUnreachableCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	// Low-diversity rules: coverage is poor, remainder fraction high.
	rs := rules.NewRuleSet(5)
	for i := 0; i < 200; i++ {
		rs.AddAuto(
			rules.ExactRange(uint32(i%4)),
			rules.FullRange(),
			rules.Range{Lo: 0, Hi: 65535},
			rules.ExactRange(uint32(rng.Intn(50))),
			rules.ExactRange(6),
		)
	}
	opts := fastOpts()
	opts.MinCoverage = 0.25
	e, err := Build(rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	frac := e.Updates().RemainderFraction
	ap := NewAutopilot(e, AutopilotPolicy{
		MaxUpdates:            -1,
		MaxOverlayCompactions: -1,
		MaxRemainderFraction:  frac / 2, // ceiling the rule-set cannot reach
		MinLiveRules:          1,
	})
	for i := 0; i < 5; i++ {
		if retrained, err := ap.Check(); err != nil || retrained {
			t.Fatalf("check %d: (%v, %v) — unreachable ceiling must not retrain", i, retrained, err)
		}
	}
	if st := ap.Stats(); st.Retrains != 0 {
		t.Fatalf("autopilot thrashed: %+v", st)
	}
}

func TestAutopilotCheckRetrainsOnDrift(t *testing.T) {
	prof, err := classbench.ProfileByName("acl2")
	if err != nil {
		t.Fatal(err)
	}
	d := newChurnDriver(t, prof, 400, 600, fastOpts(), 51)
	ap := NewAutopilot(d.e, AutopilotPolicy{MaxUpdates: 200, MinLiveRules: 1})
	if retrained, err := ap.Check(); err != nil || retrained {
		t.Fatalf("fresh engine Check = (%v, %v), want no retrain", retrained, err)
	}
	for d.inserts+d.deletes < 200 {
		d.step()
	}
	retrained, err := ap.Check()
	if err != nil || !retrained {
		t.Fatalf("drifted Check = (%v, %v), want retrain", retrained, err)
	}
	st := ap.Stats()
	if st.Retrains != 1 || st.Failures != 0 || st.LastTrigger == "" {
		t.Errorf("stats after retrain: %+v", st)
	}
	d.verifySweep(400)
	// Drift is resolved: an immediate re-check must not retrain again.
	if retrained, _ := ap.Check(); retrained {
		t.Error("Check retrained twice without new drift")
	}
	// MinInterval suppresses even real drift.
	apSlow := NewAutopilot(d.e, AutopilotPolicy{MaxUpdates: 50, MinLiveRules: 1, MinInterval: time.Hour})
	if retrained, _ := apSlow.Check(); retrained {
		t.Error("no drift yet")
	}
	for d.inserts+d.deletes < 300 {
		d.step()
	}
	if retrained, _ := apSlow.Check(); !retrained {
		t.Error("first trip must retrain")
	}
	for n := d.inserts + d.deletes; d.inserts+d.deletes < n+60; {
		d.step()
	}
	if retrained, _ := apSlow.Check(); retrained {
		t.Error("MinInterval must suppress the second retrain")
	}
}

// TestAutopilotSustainedChurn is the acceptance workload: a sustained
// interleaved insert/delete/lookup stream (>=50k operations across three
// ClassBench profiles) with the autopilot's background watcher running. The
// autopilot must trigger at least one automatic retrain per profile, and
// every verified lookup — issued before, during, and after the hot swaps —
// must agree with the linear reference.
func TestAutopilotSustainedChurn(t *testing.T) {
	profiles := []string{"acl1", "fw1", "ipc1"}
	ops := 17000
	size, pool := 600, 6000
	if testing.Short() {
		profiles = profiles[:1]
		ops, size, pool = 4000, 300, 1500
	}
	for pi, name := range profiles {
		t.Run(name, func(t *testing.T) {
			prof, err := classbench.ProfileByName(name)
			if err != nil {
				t.Fatal(err)
			}
			d := newChurnDriver(t, prof, size, pool, fastOpts(), 61+int64(pi))
			if raceEnabled {
				// Race instrumentation makes the linear reference ~10x
				// slower; sample the verification instead of thinning the
				// workload so the op count stays at acceptance scale.
				d.verifyStride = 8
			}
			ap := NewAutopilot(d.e, AutopilotPolicy{
				MaxUpdates:   1200,
				MinLiveRules: 1,
				Interval:     2 * time.Millisecond,
			})
			ap.Start()
			defer ap.Stop()

			// An unverified prober hammers the batched paths concurrently so
			// the swap is exercised against parallel readers (checked by the
			// race detector; correctness is asserted by the driver's
			// verified lookups and the final sweeps).
			probeStop := make(chan struct{})
			probeDone := make(chan struct{})
			go func() {
				defer close(probeDone)
				rng := rand.New(rand.NewSource(999))
				pkts := make([]rules.Packet, 128)
				for i := range pkts {
					pkts[i] = make(rules.Packet, 5)
					for j := range pkts[i] {
						pkts[i][j] = rng.Uint32()
					}
				}
				out := make([]int, len(pkts))
				for i := 0; ; i++ {
					select {
					case <-probeStop:
						return
					default:
						d.e.LookupBatch(pkts, out)
						d.e.Lookup(pkts[rng.Intn(len(pkts))])
						if i%64 == 0 {
							// Introspection accessors must be safe against a
							// concurrent retrain swap (they lock).
							d.e.Stats()
							d.e.MemoryFootprint()
						}
					}
				}
			}()

			for i := 0; i < ops; i++ {
				d.step()
				if i%4096 == 0 {
					d.verifySweep(64)
				}
			}
			// The watcher is asynchronous; if the final drift tranche has
			// not been polled yet, force one synchronous check so the
			// assertion below is deterministic.
			if ap.Stats().Retrains == 0 {
				if _, err := ap.Check(); err != nil {
					t.Fatalf("final check: %v", err)
				}
			}
			close(probeStop)
			<-probeDone
			ap.Stop()

			st := ap.Stats()
			if st.Retrains < 1 {
				t.Fatalf("autopilot never retrained under %d ops (%d updates): %+v",
					d.ops, d.inserts+d.deletes, st)
			}
			if st.Failures > 0 {
				t.Fatalf("autopilot retrain failures: %+v", st)
			}
			// Backstop for the batched journal replay: with thousands of
			// journaled updates per swap, a regression to per-op
			// O(journal × remainder) replay pushes the write-side stall
			// into the hundreds of milliseconds even on a quiet host. The
			// precise structural bound (single publish, linear allocation)
			// is asserted in TestBatchReplayEquivalence; this catches a
			// quadratic stall at acceptance scale.
			if st.MaxSwap > time.Second {
				t.Errorf("max swap stall %v with %d replayed updates — journal replay no longer batched?",
					st.MaxSwap, st.Replayed)
			}
			d.verifySweep(800)
			t.Logf("%s: %d ops (%d lookups, %d inserts, %d deletes), %d retrains, last trigger %q, max swap %v, total train %v, replayed %d",
				name, d.ops, d.lookups, d.inserts, d.deletes,
				st.Retrains, st.LastTrigger, st.MaxSwap, st.TotalTrain, st.Replayed)
		})
	}
}

func TestAutopilotStartStopIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	rs := structuredRuleSet(rng, 120)
	e, err := Build(rs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	ap := NewAutopilot(e, AutopilotPolicy{Interval: time.Millisecond})
	ap.Stop() // stop before start: no-op
	ap.Start()
	ap.Start() // double start: no second watcher
	time.Sleep(5 * time.Millisecond)
	ap.Stop()
	ap.Stop()
	if st := ap.Stats(); st.Checks == 0 {
		t.Error("watcher never polled")
	}

	// Negative Interval disables the watcher: Start must be a no-op (not a
	// NewTicker panic) and Check stays available for manual driving.
	off := NewAutopilot(e, AutopilotPolicy{Interval: -1})
	off.Start()
	off.Stop()
	if _, err := off.Check(); err != nil {
		t.Errorf("manual Check with disabled watcher: %v", err)
	}
	if st := off.Stats(); st.Checks != 1 {
		t.Errorf("Checks = %d, want 1 (only the manual one)", st.Checks)
	}
}
