package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nuevomatch"
	"nuevomatch/internal/rules"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run reports: metrics by name plus the count of verified
// operations and how many of them were wrong.
type result struct {
	metrics   map[string]metricValue
	attempted int64
	failed    int64
	// notes are extra human-readable lines (sample counts, tails) printed
	// beside the metrics; they are not part of the machine record.
	notes []string
}

func (r *result) set(name string, v float64, defs []metricDef) {
	for _, d := range defs {
		if d.name == name {
			r.metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in spec.go")
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// finish takes over the checker's counts.
func (r *result) finish(chk *checker) {
	r.attempted, r.failed = chk.attempted.Load(), chk.failed.Load()
	if r.failed > 0 {
		r.notef("first_failure %s", chk.first)
	}
}

// checker counts verified operations. Serving clients verify from their own
// goroutines, hence the atomics.
type checker struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	first     string // description of the first failure, for the error output
}

func (c *checker) fail(format string, args ...any) {
	c.failed.Add(1)
	c.mu.Lock()
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
	c.mu.Unlock()
}

// same verifies got[i] == want[i] for every i, one operation each.
func (c *checker) same(what string, got, want []int) {
	c.attempted.Add(int64(len(want)))
	for i := range want {
		if got[i] != want[i] {
			c.fail("%s: packet %d answered %d, want %d", what, i, got[i], want[i])
		}
	}
}

// op verifies one fallible operation.
func (c *checker) op(what string, err error) {
	c.attempted.Add(1)
	if err != nil {
		c.fail("%s: %v", what, err)
	}
}

// run performs and verifies one fallible operation.
func (c *checker) run(what string, op func() error) { c.op(what, op()) }

// phases splits the run's measuring time 19:3 between the interleaved loop and
// the one-in-flight round-trip phase.
func phases(seconds float64) (loop, rtt time.Duration) {
	unit := time.Duration(seconds / runSeconds * float64(time.Second))
	return 19 * unit, 3 * unit
}

// minRounds is the floor on rounds per kind: 1500 at the contract's run
// length, proportionally fewer on the shortened runs the tests make.
func minRounds(seconds float64) int {
	return max(30, min(1500, int(1500*seconds/runSeconds)))
}

func openTable(rs *rules.RuleSet) (*nuevomatch.Table, float64, error) {
	t0 := time.Now()
	t, err := nuevomatch.Open(rs)
	return t, time.Since(t0).Seconds(), err
}

func saveImage(t *nuevomatch.Table) ([]byte, float64, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	_, err := t.Save(&buf)
	return buf.Bytes(), time.Since(t0).Seconds(), err
}

func loadImage(image []byte) (*nuevomatch.Table, float64, error) {
	t0 := time.Now()
	t, err := nuevomatch.Load(bytes.NewReader(image))
	return t, time.Since(t0).Seconds(), err
}

// batchRound classifies one window as 16 chunks of 128 through LookupBatch.
func batchRound(t *nuevomatch.Table, win []rules.Packet, out []int) {
	for c := 0; c < len(win); c += chunkPkts {
		t.LookupBatch(win[c:c+chunkPkts], out[c:c+chunkPkts])
	}
}

func scalarRound(t *nuevomatch.Table, win []rules.Packet, out []int) {
	for i, p := range win {
		out[i] = t.Lookup(p)
	}
}

// answers classifies the whole trace both ways and holds batch ≡ scalar; the
// scalar answers are returned as the reference for everything that follows.
func answers(what string, t *nuevomatch.Table, pkts []rules.Packet, chk *checker) []int {
	scalar := make([]int, len(pkts))
	batch := make([]int, len(pkts))
	scalarRound(t, pkts, scalar)
	batchRound(t, pkts, batch)
	chk.same(what+" batch vs scalar", batch, scalar)
	return scalar
}

// updateCycle runs the four phases of one cycle on c; the rule set returns to
// where it started. It crosses the overlay's compaction threshold twice. Every
// operation goes through do, which runs it and accounts for it (checker.run,
// or the traced run's span around it).
func updateCycle(c *nuevomatch.Table, in *inputs, do func(name string, op func() error)) {
	for i := range in.victims {
		do("core.delete", func() error { return c.Delete(in.victims[i].ID) })
	}
	for i := range in.fresh {
		do("core.insert", func() error { return c.Insert(in.fresh[i]) })
	}
	for i := range in.fresh {
		do("core.delete", func() error { return c.Delete(in.fresh[i].ID) })
	}
	for i := range in.victims {
		do("core.insert", func() error { return c.Insert(in.victims[i]) })
	}
}

const (
	kindBatch = iota
	kindScalar
	kindDrifted
	kindUpdate
	numKinds
)

// loopSamples are the rounds of each kind and the load times (s), collected
// by one interleaved loop.
type loopSamples struct {
	kind  [numKinds]rounds
	loadS []float64
}

// interleavedLoop is the single-thread measurement loop. All round kinds run
// round-robin in one loop so that a contended stretch of the box hits every
// metric alike and every metric sees the quiet windows; odd iterations run
// the kinds in reverse order so no kind always inherits the same neighbour's
// cache contents. Every round is bracketed by two clock probes (see
// rounds.floor). Every 32nd iteration also loads the table image. Each round's
// answers are verified outside the timed region.
func interleavedLoop(in *inputs, a, b, c *nuevomatch.Table, image []byte, wantA, wantB []int,
	dur time.Duration, rounds int, chk *checker) loopSamples {
	var s loopSamples
	out := make([]int, roundPkts)
	windows := len(in.pkts) / roundPkts
	start := time.Now()
	for iter := 0; iter < rounds || time.Since(start) < dur; iter++ {
		for j := 0; j < numKinds; j++ {
			kind := j
			if iter%2 == 1 {
				kind = numKinds - 1 - j
			}
			off := (iter*numKinds + kind) % windows * roundPkts
			win := in.pkts[off : off+roundPkts]
			before := clockProbe()
			t0 := time.Now()
			switch kind {
			case kindBatch:
				batchRound(a, win, out)
			case kindScalar:
				scalarRound(a, win, out)
			case kindDrifted:
				batchRound(b, win, out)
			case kindUpdate:
				updateCycle(c, in, chk.run)
			}
			ns := float64(time.Since(t0).Nanoseconds())
			s.kind[kind].add(before, ns, clockProbe())
			switch kind {
			case kindBatch, kindScalar:
				chk.same("loop pristine", out, wantA[off:off+roundPkts])
			case kindDrifted:
				chk.same("loop drifted", out, wantB[off:off+roundPkts])
			}
		}
		if iter%32 == 0 {
			t, secs, err := loadImage(image)
			chk.op("load", err)
			if err != nil {
				continue
			}
			s.loadS = append(s.loadS, secs)
			scalarRound(t, in.pkts[:chunkPkts], out[:chunkPkts])
			chk.same("loaded table", out[:chunkPkts], in.wantPristine[:chunkPkts])
			t.Close()
		}
	}
	return s
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(in *inputs, seconds float64) (*result, error) {
	loopDur, rttDur := phases(seconds)
	chk := &checker{}
	res := &result{metrics: map[string]metricValue{}}
	var builds []float64

	// Build #1 is table A; the others are spread across the run, half after
	// the loop and half after the round trips, so that one contended stretch
	// cannot slow them all.
	a, secs, err := openTable(in.rs)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	defer a.Close()
	builds = append(builds, secs)
	indexBytes := a.MemoryFootprint()
	rebuild := func(n int) error {
		for i := 0; i < n; i++ {
			t, secs, err := openTable(in.rs)
			if err != nil {
				return fmt.Errorf("rebuild: %w", err)
			}
			builds = append(builds, secs)
			chk.attempted.Add(1)
			if got := t.MemoryFootprint(); got != indexBytes {
				chk.fail("rebuild produced a %d-byte index, first build %d", got, indexBytes)
			}
			t.Close()
		}
		return nil
	}

	image, _, err := saveImage(a)
	if err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	b, _, err := loadImage(image)
	if err != nil {
		return nil, fmt.Errorf("load B: %w", err)
	}
	defer b.Close()
	if err := in.applyDrift(b); err != nil {
		return nil, err
	}
	c, _, err := loadImage(image)
	if err != nil {
		return nil, fmt.Errorf("load C: %w", err)
	}
	defer c.Close()

	// Correctness gates before anything is timed.
	wantA := answers("A", a, in.pkts, chk)
	wantB := answers("B", b, in.pkts, chk)
	chk.same("A vs oracle", wantA[:oracleLen], in.wantPristine)
	chk.same("B vs oracle", wantB[:oracleLen], in.wantDrifted)
	got := make([]int, oracleLen)
	scalarRound(c, in.pkts[:oracleLen], got)
	chk.same("loaded vs oracle", got, in.wantPristine)

	updateCycle(c, in, chk.run) // warm-up: moves the victims into the remainder for good

	loop := interleavedLoop(in, a, b, c, image, wantA, wantB, loopDur, minRounds(seconds), chk)
	scalarRound(c, in.pkts[:oracleLen], got)
	chk.same("C after cycles vs oracle", got, in.wantPristine)

	if err := rebuild((in.w.builds - 1) / 2); err != nil {
		return nil, err
	}
	rtt, err := rttPhase(a, in.pkts, wantA, rttDur, chk)
	if err != nil {
		return nil, fmt.Errorf("round trips: %w", err)
	}
	if err := rebuild(in.w.builds - 1 - (in.w.builds-1)/2); err != nil {
		return nil, err
	}

	floor := func(kind int) float64 { return loop.kind[kind].floor() }
	res.set("setup_s", minOf(builds), endToEnd)
	res.set("index_bytes", float64(indexBytes), endToEnd)
	res.set("classify_mpps", roundPkts/floor(kindBatch)*1e3, endToEnd)
	res.set("lookup_ns", floor(kindScalar)/roundPkts, endToEnd)
	res.set("load_s", minOf(loop.loadS), endToEnd)
	res.set("update_kops", 4*cycleRules/floor(kindUpdate)*1e6, endToEnd)
	res.set("drifted_mpps", roundPkts/floor(kindDrifted)*1e3, endToEnd)
	res.set("served_rtt_us", percentile(rtt.rttUS, 0.50), endToEnd)

	batch := &loop.kind[kindBatch]
	res.notef("rounds_per_kind %d, of which %d with a steady clock (probe p50 %.0f ns, reference %d)",
		len(batch.ns), len(batch.atRefClock()), percentile(batch.before, 0.50), refProbeNS)
	res.notef("classify_mpps_unscaled %.4f, round p50 %.1f ns/pkt", roundPkts/quietFloor(batch.ns)*1e3, percentile(batch.ns, 0.50)/roundPkts)
	res.notef("loads %d (fastest-tenth mean %.6f s, p50 %.6f s)", len(loop.loadS), quietFloor(loop.loadS), percentile(loop.loadS, 0.5))
	res.notef("builds_s %.3f", builds)
	res.notef("served_rtt_p99_us %.1f over %d round trips", percentile(rtt.rttUS, 0.99), len(rtt.rttUS))

	res.finish(chk)
	return res, nil
}
