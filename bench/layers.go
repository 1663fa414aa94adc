package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"nuevomatch"
	"nuevomatch/internal/classifiers/cutsplit"
	"nuevomatch/internal/classifiers/rvh"
	"nuevomatch/internal/classifiers/tuplemerge"
	"nuevomatch/internal/iset"
	"nuevomatch/internal/rqrmi"
	"nuevomatch/internal/rules"
)

// shadow is the engine's pipeline rebuilt from the layers' public
// constructors with the engine's own options and seeds, so that each layer can
// be timed from outside. It answers exactly like the engine it shadows, which
// the traced run verifies on every replayed chunk.
type shadow struct {
	rs       *rules.RuleSet
	part     *iset.Partition
	fields   []int
	models   []*rqrmi.Model
	remRules *rules.RuleSet
	live     rules.Classifier // TupleMerge over the remainder, updatable form
	frozen   rules.FrozenClassifier
	// batchSpan[i] names iSet i's replay span; built once, not per chunk.
	batchSpan []string
}

// buildShadow repeats core.Build's steps under spans whose parent is the
// engine's own build span: iset.Build with the default options (4 iSets, 5 %
// minimum coverage), rqrmi.Train per iSet with seed 42 + 7919·i, and
// tuplemerge.Build(remainder).Freeze().
func buildShadow(rs *rules.RuleSet, tr *tracer, parent int) (*shadow, error) {
	sh := &shadow{rs: rs}
	id := tr.begin("iset.build", parent, 0)
	sh.part = iset.Build(rs, iset.Options{MaxISets: 4, MinCoverage: 0.05})
	tr.end(id)
	for i, is := range sh.part.ISets {
		entries := make([]rqrmi.Entry, len(is.Positions))
		for j, pos := range is.Positions {
			entries[j] = rqrmi.Entry{Range: rs.Rules[pos].Fields[is.Field], Value: pos}
		}
		id := tr.begin(fmt.Sprintf("rqrmi.train[%d]", i), parent, 0)
		m, _, err := rqrmi.Train(entries, rqrmi.Config{Seed: 42 + 7919*int64(i)})
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("shadow training iSet %d: %w", i, err)
		}
		sh.models = append(sh.models, m)
		sh.fields = append(sh.fields, is.Field)
		sh.batchSpan = append(sh.batchSpan, fmt.Sprintf("rqrmi.batch[%d]", i))
	}
	sh.remRules = rs.Subset(sh.part.Remainder)
	id = tr.begin("remainder.build", parent, 0)
	live, err := tuplemerge.Build(sh.remRules)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	sh.live = live
	id = tr.begin("remainder.freeze", parent, 0)
	sh.frozen = live.(rules.Freezable).Freeze()
	tr.end(id)
	return sh, nil
}

func (sh *shadow) modelBytes() int {
	b := 0
	for _, m := range sh.models {
		b += m.MemoryFootprint()
	}
	return b
}

func (sh *shadow) maxError() int {
	e := 0
	for _, m := range sh.models {
		e = max(e, m.MaxError())
	}
	return e
}

// validate is the bench's copy of the engine's candidate check: the rule at
// the entry's position must match every field and beat the packet's bound.
func (sh *shadow) validate(m *rqrmi.Model, entry int, p rules.Packet, best *int, bound *int32) {
	if entry < 0 {
		return
	}
	r := &sh.rs.Rules[m.Values()[entry]]
	if r.Priority < *bound && r.Matches(p) {
		*best, *bound = r.ID, r.Priority
	}
}

// layerSamples collects the replay's rounds per layer, clock probes included,
// so that layer times are at the same reference clock as the end-to-end ones.
type layerSamples struct {
	rqrmiBatch, remBatch             rounds
	predict, search, remScalar, rvh  rounds
	coreTraced, tracedWall, classify rounds
	noEarly, parallel, cluster       rounds
	baseTM, baseCS                   rounds
	keys, hits, pkts, remWins        float64
}

// replayChunks replays one window chunk by chunk: each iSet's model, the
// bench's validation, the frozen remainder under the bounds validation left,
// and then the engine's own LookupBatch, whose answer the shadow must equal.
func (sh *shadow) replayChunks(a *nuevomatch.Table, win []rules.Packet, round int, tr *tracer, s *layerSamples, chk *checker) {
	before := clockProbe()
	var keys [chunkPkts]uint32
	var ents [chunkPkts]int32
	var bounds [chunkPkts]int32
	var best, out [chunkPkts]int
	rq, rem := 0.0, 0.0
	for c := 0; c < len(win); c += chunkPkts {
		chunk := win[c : c+chunkPkts]
		req := round*(roundPkts/chunkPkts) + c/chunkPkts
		root := tr.begin("bench.chunk", 0, req)
		for i := range chunk {
			best[i], bounds[i] = rules.NoMatch, math.MaxInt32
		}
		for mi, m := range sh.models {
			for i, p := range chunk {
				keys[i] = p[sh.fields[mi]]
			}
			id := tr.begin(sh.batchSpan[mi], root, req)
			m.LookupEntryBatch(keys[:], ents[:])
			rq += tr.end(id)
			for i, p := range chunk {
				if ents[i] >= 0 {
					s.hits++
				}
				sh.validate(m, int(ents[i]), p, &best[i], &bounds[i])
			}
			s.keys += chunkPkts
		}
		shadowAns := best
		id := tr.begin("remainder.frozen_batch", root, req)
		sh.frozen.LookupBatch(chunk, bounds[:], nil, shadowAns[:])
		rem += tr.end(id)
		for i := range chunk {
			if shadowAns[i] != best[i] {
				s.remWins++
			}
		}
		s.pkts += chunkPkts
		id = tr.begin("core.batch", root, req)
		a.LookupBatch(chunk, out[:])
		tr.end(id)
		tr.end(root)
		chk.same("shadow pipeline vs engine", shadowAns[:], out[:])
	}
	after := clockProbe()
	s.rqrmiBatch.add(before, rq, after)
	s.remBatch.add(before, rem, after)
}

// replayScalar times the scalar forms over one window: Predict and Search of
// every iSet, then the frozen TupleMerge and RVH remainders under the bounds
// the iSets left.
func (sh *shadow) replayScalar(rvhFrozen rules.FrozenClassifier, win []rules.Packet, want []int, s *layerSamples, chk *checker) {
	type pr struct{ pred, err int }
	preds := make([]pr, len(win))
	best := make([]int, len(win))
	bounds := make([]int32, len(win))
	for i := range win {
		best[i], bounds[i] = rules.NoMatch, math.MaxInt32
	}
	predict, search := 0.0, 0.0
	before := clockProbe()
	for mi, m := range sh.models {
		f := sh.fields[mi]
		t0 := time.Now()
		for i, p := range win {
			preds[i].pred, preds[i].err = m.Predict(p[f])
		}
		t1 := time.Now()
		for i, p := range win {
			idx, ok := m.Search(p[f], preds[i].pred, preds[i].err)
			if !ok {
				idx = -1
			}
			preds[i].pred = idx
		}
		t2 := time.Now()
		predict += float64(t1.Sub(t0).Nanoseconds())
		search += float64(t2.Sub(t1).Nanoseconds())
		for i, p := range win {
			sh.validate(m, preds[i].pred, p, &best[i], &bounds[i])
		}
	}
	after := clockProbe()
	s.predict.add(before, predict, after)
	s.search.add(before, search, after)

	got := make([]int, len(win))
	for _, fz := range []struct {
		f   rules.FrozenClassifier
		dst *rounds
	}{{sh.frozen, &s.remScalar}, {rvhFrozen, &s.rvh}} {
		timed(fz.dst, func() {
			for i, p := range win {
				got[i] = fz.f.Lookup(p, bounds[i], nil)
			}
		})
		for i := range got {
			if got[i] < 0 {
				got[i] = best[i]
			}
		}
		chk.same("scalar shadow pipeline", got, want)
	}
}

// timed runs f between two clock probes and adds the round to dst.
func timed(dst *rounds, f func()) {
	before := clockProbe()
	t0 := time.Now()
	f()
	ns := float64(time.Since(t0).Nanoseconds())
	dst.add(before, ns, clockProbe())
}

// traced is the state of one traced run: what the sections below share.
type traced struct {
	in      *inputs
	seconds float64
	tr      *tracer
	chk     *checker
	res     *result

	a         *nuevomatch.Table // the engine under measurement
	sh        *shadow
	rvhFrozen rules.FrozenClassifier // the second remainder backend over the same remainder
	tmFrozen  rules.FrozenClassifier // baseline: TupleMerge alone over all rules
	cutSplit  rules.Classifier       // baseline: CutSplit over all rules
	cluster   *nuevomatch.Cluster
	image     []byte
	wantA     []int
	out       []int   // answers of the current round
	classify  float64 // Mpkt/s of plain LookupBatch rounds in the replay
}

func (t *traced) set(name string, v float64) { t.res.set(name, v, perLayer) }

// window is the i-th window of the trace, wrapping around.
func (t *traced) window(i int) (pkts []rules.Packet, off int) {
	off = i % (len(t.in.pkts) / roundPkts) * roundPkts
	return t.in.pkts[off : off+roundPkts], off
}

// runTraced is the separate traced run: it prints the per-layer metrics and
// writes the spans. End-to-end numbers never come from here.
func runTraced(in *inputs, seconds float64, spanPath string) (*result, error) {
	t := &traced{
		in: in, seconds: seconds, tr: newTracer(), chk: &checker{},
		res: &result{metrics: map[string]metricValue{}},
		out: make([]int, roundPkts),
	}
	for _, section := range []func() error{t.builds, t.replay, t.profile, t.updates, t.serving} {
		if err := section(); err != nil {
			return nil, err
		}
	}
	t.a.Close()
	t.cluster.Close()
	if err := t.tr.writeFile(spanPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	t.res.notef("spans %d written to %s", len(t.tr.spans), spanPath)
	t.res.finish(t.chk)
	return t.res, nil
}

// builds constructs everything the later sections measure and reports the
// build-time and size metrics: the engine's own build with the shadow pipeline
// as its children, RVH, the baselines, the codec and the cluster.
func (t *traced) builds() error {
	in, tr := t.in, t.tr
	bid := tr.begin("core.build", 0, 0)
	a, err := nuevomatch.Open(in.rs)
	tr.end(bid)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	t.a = a
	if t.sh, err = buildShadow(in.rs, tr, bid); err != nil {
		return err
	}
	sh := t.sh
	// One build's wall time moves by a fifth between repeats on this box, so
	// the engine is built once more and the faster build is the one whose
	// self time is reported.
	bid2 := tr.begin("core.build", 0, 1)
	again, err := nuevomatch.Open(in.rs)
	tr.end(bid2)
	if err != nil {
		return fmt.Errorf("second build: %w", err)
	}
	again.Close()
	st := a.Stats()
	t.chk.attempted.Add(1)
	if len(sh.models) != a.NumISets() || len(sh.part.Remainder) != st.RemainderSize ||
		sh.modelBytes() != a.RQRMIBytes() || sh.live.MemoryFootprint() != a.RemainderBytes() {
		t.chk.fail("shadow pipeline differs from the engine: %d iSets/%d remainder/%d+%d B, engine %d/%d/%d+%d",
			len(sh.models), len(sh.part.Remainder), sh.modelBytes(), sh.live.MemoryFootprint(),
			a.NumISets(), st.RemainderSize, a.RQRMIBytes(), a.RemainderBytes())
	}
	spanS := func(name string) float64 { // total seconds of the build's child spans with this name prefix
		ns := 0.0
		for i, s := range tr.spans {
			if s.Parent == bid && strings.HasPrefix(s.Name, name) {
				ns += tr.dur(i + 1)
			}
		}
		return ns / 1e9
	}
	t.set("iset.build_s", spanS("iset.build"))
	t.set("iset.count", float64(len(sh.part.ISets)))
	t.set("iset.coverage", sh.part.Coverage())
	t.set("iset.remainder_rules", float64(len(sh.part.Remainder)))
	t.set("rqrmi.train_s", spanS("rqrmi.train"))
	t.set("rqrmi.model_bytes", float64(sh.modelBytes()))
	t.set("rqrmi.max_error", float64(sh.maxError()))
	t.set("remainder.build_s", spanS("remainder.build"))
	t.set("remainder.freeze_s", spanS("remainder.freeze"))
	t.set("remainder.bytes", float64(sh.live.MemoryFootprint()))
	// The engine's glue is smaller than the difference between two builds; a
	// negative remainder is noise and is reported as none.
	buildSelf := tr.selfTime(bid) - max(0, tr.dur(bid)-tr.dur(bid2))
	t.set("core.build_self_s", max(0, buildSelf)/1e9)

	// The second remainder backend and the paper's baselines over the same rules.
	rvhLive, err := rvh.Build(sh.remRules)
	if err != nil {
		return err
	}
	t.rvhFrozen = rvhLive.(rules.Freezable).Freeze()
	t.set("remainder.rvh.bytes", float64(rvhLive.MemoryFootprint()))
	tmLive, err := tuplemerge.Build(in.rs)
	if err != nil {
		return err
	}
	t.tmFrozen = tmLive.(rules.Freezable).Freeze()
	t.set("baseline.tuplemerge.index_bytes", float64(tmLive.MemoryFootprint()))
	if t.cutSplit, err = cutsplit.Build(in.rs); err != nil {
		return err
	}
	t.set("baseline.cutsplit.index_bytes", float64(t.cutSplit.MemoryFootprint()))

	var saves []float64
	for i := 0; i < 5; i++ {
		img, secs, err := saveImage(a)
		if err != nil {
			return fmt.Errorf("save: %w", err)
		}
		t.image, saves = img, append(saves, secs)
	}
	t.set("core.save_s", minOf(saves))
	t.set("core.table_bytes", float64(len(t.image)))

	t0 := time.Now()
	if t.cluster, err = nuevomatch.OpenCluster(in.rs, nuevomatch.WithShards(2)); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	t.set("cluster.build_s", time.Since(t0).Seconds())
	t.set("cluster.replicated_rules", float64(t.cluster.Stats().Replicated))

	t.wantA = answers("A", a, in.pkts, t.chk)
	t.chk.same("A vs oracle", t.wantA[:oracleLen], in.wantPristine)
	return nil
}

// replay is the layer replay: all kinds interleaved in one loop, as in the
// untraced run, odd rounds in reverse order so that none always runs behind
// the same neighbour (the CutSplit baseline walks a tree far larger than any
// cache).
func (t *traced) replay() error {
	a, sh, tr, out := t.a, t.sh, t.tr, t.out
	var s layerSamples
	perChunk := func(f func(pkts []rules.Packet, out []int)) func([]rules.Packet) {
		return func(w []rules.Packet) {
			for c := 0; c < roundPkts; c += chunkPkts {
				f(w[c:c+chunkPkts], out[c:c+chunkPkts])
			}
		}
	}
	perPacket := func(f func(p rules.Packet) int) func([]rules.Packet) {
		return func(w []rules.Packet) {
			for i, p := range w {
				out[i] = f(p)
			}
		}
	}
	// plain is a step that times one window through round and has the
	// answers it left in out verified.
	plain := func(dst *rounds, round func([]rules.Packet)) func(int, []rules.Packet, []int) {
		return func(_ int, w []rules.Packet, want []int) {
			timed(dst, func() { round(w) })
			t.chk.same("replay step", out, want)
		}
	}
	// The LookupBatch round again under one span per chunk: the difference
	// between the two is the tracing overhead.
	spanned := 0.0
	tracedRound := perChunk(func(pkts []rules.Packet, out []int) {
		id := tr.begin("core.batch", 0, -1)
		a.LookupBatch(pkts, out)
		spanned += tr.end(id)
	})
	steps := []func(round int, w []rules.Packet, want []int){
		plain(&s.classify, func(w []rules.Packet) { batchRound(a, w, out) }),
		func(_ int, w []rules.Packet, want []int) {
			spanned = 0
			timed(&s.tracedWall, func() { tracedRound(w) })
			last := len(s.tracedWall.ns) - 1
			s.coreTraced.add(s.tracedWall.before[last], spanned, s.tracedWall.after[last])
			t.chk.same("replay step", out, want)
		},
		func(round int, w []rules.Packet, _ []int) { sh.replayChunks(a, w, round, tr, &s, t.chk) },
		func(_ int, w []rules.Packet, want []int) { sh.replayScalar(t.rvhFrozen, w, want, &s, t.chk) },
		plain(&s.noEarly, perPacket(a.Engine().LookupNoEarlyTermination)),
		plain(&s.parallel, perChunk(a.LookupBatchParallel)),
		plain(&s.cluster, perChunk(t.cluster.LookupBatch)),
		plain(&s.baseTM, perPacket(func(p rules.Packet) int { return t.tmFrozen.Lookup(p, math.MaxInt32, nil) })),
		plain(&s.baseCS, perPacket(t.cutSplit.Lookup)),
	}
	loopDur, _ := phases(t.seconds)
	start := time.Now()
	for round := 0; time.Since(start) < loopDur/3 || round < 30; round++ {
		for j := range steps {
			k := j
			if round%2 == 1 {
				k = len(steps) - 1 - j
			}
			w, off := t.window(round*len(steps) + k)
			steps[k](round, w, t.wantA[off:off+roundPkts])
		}
	}
	nIS := float64(len(sh.models))
	perKey := func(r rounds) float64 { return r.floor() / roundPkts / nIS }
	perPkt := func(r rounds) float64 { return r.floor() / roundPkts }
	t.set("rqrmi.batch_ns", perKey(s.rqrmiBatch))
	t.set("rqrmi.predict_ns", perKey(s.predict))
	t.set("rqrmi.search_ns", perKey(s.search))
	t.set("rqrmi.hit_ratio", s.hits/s.keys)
	t.set("remainder.frozen_ns", perPkt(s.remScalar))
	t.set("remainder.frozen_batch_ns", perPkt(s.remBatch))
	t.set("remainder.win_ratio", s.remWins/s.pkts)
	t.set("remainder.rvh.frozen_ns", perPkt(s.rvh))
	t.set("core.batch_self_ns", perPkt(s.coreTraced)-perPkt(s.rqrmiBatch)-perPkt(s.remBatch))
	t.set("core.noearly_ns", perPkt(s.noEarly))
	t.set("core.batch_parallel_ns", perPkt(s.parallel))
	t.set("core.round_p50_ns", percentile(s.classify.ns, 0.50)/roundPkts)
	t.set("core.contention_ratio", percentile(s.classify.ns, 0.50)/quietFloor(s.classify.ns))
	t.set("cluster.batch_ns", perPkt(s.cluster))
	t.set("baseline.tuplemerge.lookup_ns", perPkt(s.baseTM))
	t.set("baseline.cutsplit.lookup_ns", perPkt(s.baseCS))
	t.set("bench.trace_overhead_pct", 100*(s.tracedWall.floor()/s.classify.floor()-1))
	t.classify = roundPkts / s.classify.floor() * 1e3
	t.res.notef("replay_rounds %d", len(s.classify.ns))
	t.res.notef("classify_mpps_untraced %.4f", t.classify)
	return nil
}

// profile is the engine's own scalar stage profile (Figure 14) and its
// allocation count.
func (t *traced) profile() error {
	pkts, want := t.in.pkts[:oracleLen], t.wantA[:oracleLen]
	prof := [4]float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}
	for rep := 0; rep < 5; rep++ {
		p, got := t.a.Engine().ProfileTrace(pkts)
		t.chk.same("ProfileTrace", got, want)
		for i, d := range []time.Duration{p.Inference, p.Search, p.Validate, p.Remainder} {
			prof[i] = math.Min(prof[i], float64(d.Nanoseconds())/oracleLen)
		}
	}
	t.set("core.profile.inference_ns", prof[0])
	t.set("core.profile.search_ns", prof[1])
	t.set("core.profile.validate_ns", prof[2])
	t.set("core.profile.remainder_ns", prof[3])

	var m0, m1 runtime.MemStats
	const allocBatches = 2000
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocBatches; i++ {
		off := i % (len(t.in.pkts) / chunkPkts) * chunkPkts
		t.a.LookupBatch(t.in.pkts[off:off+chunkPkts], t.out[:chunkPkts])
	}
	runtime.ReadMemStats(&m1)
	t.set("core.allocs_per_batch", float64(m1.Mallocs-m0.Mallocs)/allocBatches)
	return nil
}

// updates drifts table B, cycles table C under per-operation spans, looks up
// beside a writer, and retrains B.
func (t *traced) updates() error {
	in, tr, chk, out := t.in, t.tr, t.chk, t.out
	b, _, err := loadImage(t.image)
	if err != nil {
		return fmt.Errorf("load B: %w", err)
	}
	defer b.Close()
	if err := in.applyDrift(b); err != nil {
		return err
	}
	ub := b.Updates()
	t.set("core.compactions", float64(ub.OverlayCompactions))
	t.set("core.overlay_rules", float64(ub.Inserted))
	t.set("core.remainder_fraction", ub.RemainderFraction)
	wantB := answers("B", b, in.pkts, chk)
	chk.same("B vs oracle", wantB[:oracleLen], in.wantDrifted)

	c, _, err := loadImage(t.image)
	if err != nil {
		return fmt.Errorf("load C: %w", err)
	}
	defer c.Close()
	updateCycle(c, in, chk.run)
	opUS := map[string][]float64{} // span name -> operation times
	for cycle := 0; cycle < max(10, int(150*t.seconds/runSeconds)); cycle++ {
		root := tr.begin("bench.update_cycle", 0, cycle)
		updateCycle(c, in, func(name string, op func() error) {
			id := tr.begin(name, root, cycle)
			err := op()
			opUS[name] = append(opUS[name], tr.end(id)/1e3)
			chk.op(name, err)
		})
		tr.end(root)
	}
	t.set("core.insert_p50_us", percentile(opUS["core.insert"], 0.50))
	t.set("core.insert_p99_us", percentile(opUS["core.insert"], 0.99))
	t.set("core.delete_p50_us", percentile(opUS["core.delete"], 0.50))
	t.set("core.delete_p99_us", percentile(opUS["core.delete"], 0.99))

	// Lookups on this goroutine while a second one runs update cycles on the
	// same table. Answers move with the cycle, so they are verified only once
	// the writer has stopped and the rule set is back.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				updateCycle(c, in, chk.run)
			}
		}
	}()
	loopDur, _ := phases(t.seconds)
	var under rounds
	for start, i := time.Now(), 0; time.Since(start) < loopDur/19 || i < 30; i++ {
		w, _ := t.window(i)
		timed(&under, func() { batchRound(c, w, out) })
	}
	close(stop)
	wg.Wait()
	t.set("core.lookup_under_update_ns", under.floor()/roundPkts)
	got := make([]int, oracleLen)
	scalarRound(c, in.pkts[:oracleLen], got)
	chk.same("C after cycles vs oracle", got, in.wantPristine)

	rid := tr.begin("core.retrain", 0, 0)
	_, err = b.Retrain()
	t.set("core.retrain_s", tr.end(rid)/1e9)
	if err != nil {
		return fmt.Errorf("retrain: %w", err)
	}
	var retrained rounds
	for i := 0; i < 300; i++ {
		w, off := t.window(i)
		timed(&retrained, func() { batchRound(b, w, out) })
		chk.same("B after retrain", out, wantB[off:off+roundPkts])
	}
	t.set("core.retrained_mpps", roundPkts/retrained.floor()*1e3)
	scalarRound(b, in.pkts[:oracleLen], got)
	chk.same("B after retrain vs oracle", got, in.wantDrifted)
	return nil
}

// serving is the closed-loop throughput phase, every traceEvery-th client
// window under spans, and the one-in-flight round trips.
func (t *traced) serving() error {
	loopDur, rttDur := phases(t.seconds)
	thr, err := servePhase(t.a, t.in.pkts, t.wantA, loopDur/4, t.chk, t.tr)
	if err != nil {
		return fmt.Errorf("serving: %w", err)
	}
	rtt, err := rttPhase(t.a, t.in.pkts, t.wantA, rttDur/2, t.chk)
	if err != nil {
		return fmt.Errorf("round trips: %w", err)
	}
	t.set("serve.mpps", thr.mpps())
	t.set("serve.batch_fill", thr.snap.AvgBatchFill())
	t.set("serve.batches", float64(thr.snap.BatchesTotal))
	t.set("serve.server_lat_us", rtt.snap.LatencyMeanUS)
	t.set("serve.wire_us", percentile(rtt.rttUS, 0.50)-rtt.snap.LatencyMeanUS)
	t.set("serve.lat_p50_us", percentile(thr.latUS, 0.50))
	t.set("serve.lat_p99_us", percentile(thr.latUS, 0.99))
	t.set("serve.rtt_p99_us", percentile(rtt.rttUS, 0.99))
	t.set("serve.direct_ratio", thr.mpps()/t.classify)
	t.set("serve.cpu_us_per_kreq", thr.cpuUS/(float64(thr.snap.ResponsesTotal)/1e3))
	t.set("serve.errors", float64(thr.snap.ReadErrors+thr.snap.WriteErrors+rtt.snap.ReadErrors+rtt.snap.WriteErrors))
	t.res.notef("served_slices %d", len(thr.slices))
	t.res.notef("round_trips %d", len(rtt.rttUS))
	return nil
}
