package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// bimodal draws n samples: a fast mode around fast (±1 %), and with
// probability slowShare a contended mode 20–60 % slower.
func bimodal(rng *rand.Rand, n int, fast, slowShare float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = fast * (1 + 0.01*rng.NormFloat64())
		if rng.Float64() < slowShare {
			v[i] = fast * (1.2 + 0.4*rng.Float64())
		}
	}
	return v
}

func TestQuietFloorIgnoresContendedMode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const fast = 1e6
	for _, share := range []float64{0, 0.4} {
		got := quietFloor(bimodal(rng, 1500, fast, share))
		if math.Abs(got-fast)/fast > 0.02 {
			t.Errorf("contended share %.1f: quiet floor %.0f, want within 2%% of %.0f", share, got, fast)
		}
	}
	// The median of the same samples is what the estimator exists to avoid.
	if p50 := percentile(bimodal(rng, 1500, fast, 0.6), 0.5); p50 < 1.1*fast {
		t.Errorf("median %.0f of a 60%% contended sample should sit in the contended mode", p50)
	}
}

func TestSliceCeilingIgnoresContendedSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const fast = 30000.0 // responses per slice
	counts := make([]float64, 320)
	for i := range counts {
		counts[i] = fast * (1 + 0.01*rng.NormFloat64())
		if rng.Float64() < 0.4 {
			counts[i] = fast * (0.5 + 0.3*rng.Float64())
		}
	}
	if got := sliceCeiling(counts); math.Abs(got-fast)/fast > 0.02 {
		t.Errorf("slice ceiling %.0f, want within 2%% of %.0f", got, fast)
	}
}

// TestFloorAtReferenceClock: the same work timed while the core sits on
// different frequency steps for different shares of the time must give the
// same floor once rescaled, where the raw quiet floor moves with the mix.
func TestFloorAtReferenceClock(t *testing.T) {
	const work = 1e6 // ns per round at the reference clock
	steps := []float64{1, 1.035, 1.07}
	draw := func(rng *rand.Rand, mix []float64) *rounds {
		level := func() float64 {
			u, acc := rng.Float64(), 0.0
			for i, share := range mix {
				if acc += share; u < acc {
					return steps[i]
				}
			}
			return steps[len(steps)-1]
		}
		var r rounds
		for i := 0; i < 1500; i++ {
			f := level()
			probe := func(f float64) float64 { return refProbeNS * f * (1 + 0.003*rng.NormFloat64()) }
			ns := work * f * (1 + 0.01*math.Abs(rng.NormFloat64()))
			switch {
			case rng.Float64() < 0.2: // the clock changed part-way
				r.add(probe(f), ns*1.02, probe(f*1.035))
			case rng.Float64() < 0.3: // contended, clock steady
				r.add(probe(f), ns*(1.2+0.4*rng.Float64()), probe(f))
			default:
				r.add(probe(f), ns, probe(f))
			}
		}
		return &r
	}
	rng := rand.New(rand.NewSource(3))
	fast, slow := draw(rng, []float64{0.8, 0.15, 0.05}), draw(rng, []float64{0.02, 0.18, 0.8})
	for _, r := range []*rounds{fast, slow} {
		if got := r.floor(); math.Abs(got-work)/work > 0.02 {
			t.Errorf("floor at the reference clock %.0f, want within 2%% of %.0f", got, work)
		}
	}
	if raw := quietFloor(slow.ns) / quietFloor(fast.ns); raw < 1.02 {
		t.Errorf("raw floors differ by only %.3f; the test no longer exercises the rescaling", raw)
	}
	var few rounds
	few.add(refProbeNS, 5, refProbeNS*2)
	few.add(refProbeNS, 7, refProbeNS)
	if got := few.floor(); got != 5 {
		t.Errorf("with too few steady rounds the floor falls back to the raw rounds: got %v, want 5", got)
	}
}

func TestEstimatorsOnDegenerateInput(t *testing.T) {
	if !math.IsNaN(quietFloor(nil)) || !math.IsNaN(sliceCeiling(nil)) || !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("estimators of no samples must be NaN, so that a run without samples cannot report")
	}
	if got := quietFloor([]float64{3, 1, 2}); got != 1 {
		t.Errorf("quiet floor of three samples is the fastest one, got %v", got)
	}
}

// TestQuartilesMatchPython pins the quantile method to the one the acceptance
// rule is stated in: statistics.quantiles(values, n=4), exclusive.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{5, 1, 3})
	if q1 != 1 || med != 3 || q3 != 5 {
		t.Errorf("quartiles of 1 3 5 = %v %v %v, want 1 3 5", q1, med, q3)
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json equal to `nmbench -spec`
// and the spec inside the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSpec(&buf); err != nil {
		t.Fatal(err)
	}
	if committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json")); err != nil {
		t.Logf("no BENCHMARK.json beside bench/: %v", err)
	} else if !bytes.Equal(committed, buf.Bytes()) {
		t.Error("BENCHMARK.json differs from `nmbench -spec`; regenerate it")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	setup := false
	for _, m := range endToEnd {
		check(m.name)
		if !unit.MatchString(m.unit) || m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q bound %v", m.name, m.unit, m.bound)
		}
		setup = setup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	for _, m := range perLayer {
		check(m.name)
		if !unit.MatchString(m.unit) {
			t.Errorf("per-layer metric %s: unit %q", m.name, m.unit)
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Error("spec outside the driver's counts")
	}
}

// TestSmoke runs a 1 000-rule workload end to end, untraced and traced, with
// a one-second measuring time, and holds that every declared metric is
// reported once with a finite value and that no operation failed.
func TestSmoke(t *testing.T) {
	w := workload{name: "smoke-1k", profile: "acl1", rules: 1000, driftPct: 5, builds: 3}
	in, err := makeInputs(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	for _, run := range []struct {
		what string
		defs []metricDef
		f    func() (*result, error)
	}{
		{"untraced", endToEnd, func() (*result, error) { return runUntraced(in, 1) }},
		{"traced", perLayer, func() (*result, error) { return runTraced(in, 1, spans) }},
	} {
		res, err := run.f()
		if err != nil {
			t.Fatalf("%s run: %v", run.what, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s run: %d of %d operations failed: %v", run.what, res.failed, res.attempted, res.notes)
		}
		if len(res.metrics) != len(run.defs) {
			t.Errorf("%s run reported %d metrics, spec declares %d", run.what, len(res.metrics), len(run.defs))
		}
		for _, d := range run.defs {
			m, ok := res.metrics[d.name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit {
				t.Errorf("%s run: metric %s = %+v (reported %v)", run.what, d.name, m, ok)
			}
		}
	}

	b, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var ss []span
	if err := json.Unmarshal(b, &ss); err != nil {
		t.Fatalf("span file does not parse: %v", err)
	}
	names := map[string]bool{}
	for i, s := range ss {
		names[s.Name] = true
		if s.EndNS < s.StartNS || s.Parent < 0 || s.Parent > i {
			t.Fatalf("span %d %+v: ends before it starts or has a parent that is not an earlier span", i+1, s)
		}
	}
	for _, want := range []string{"core.build", "iset.build", "rqrmi.train[0]", "remainder.build", "remainder.freeze",
		"bench.chunk", "core.batch", "rqrmi.batch[0]", "remainder.frozen_batch", "core.insert", "core.delete",
		"core.retrain", "serve.client.send", "serve.client.wait_first", "serve.client.drain"} {
		if !names[want] {
			t.Errorf("no %s span in the span file", want)
		}
	}
}

// TestDiffMarksOnlyBeyondBound feeds -diff two sets of records that differ by
// less than the bound on one metric and by more on another.
func TestDiffMarksOnlyBeyondBound(t *testing.T) {
	dir := t.TempDir()
	write := func(sub string, seed int64, classify, lookup float64) {
		rec := record{Workload: workloads[0].name, Seed: seed, Correct: true, Attempted: 1, Metrics: map[string]metricValue{
			"classify_mpps": {classify, "Mpkt/s"},
			"lookup_ns":     {lookup, "ns/pkt"},
		}}
		if err := writeRecord(filepath.Join(dir, sub, "r"+string(rune('0'+seed))+".json"), rec); err != nil {
			t.Fatal(err)
		}
	}
	bound := 0.0
	for _, m := range endToEnd {
		if m.name == "classify_mpps" {
			bound = m.bound
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		write("old", seed, 3.0+0.01*float64(seed), 300)
		write("new", seed, (3.0+0.01*float64(seed))*(1-bound/2), 300*2) // classify inside the bound, lookup far outside
	}
	var out bytes.Buffer
	if err := runDiff(&out, filepath.Join(dir, "old"), filepath.Join(dir, "new")); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.Contains(line, "classify_mpps") && strings.Contains(line, "WORSE"):
			t.Errorf("classify_mpps moved by half its bound and was marked: %s", line)
		case strings.Contains(line, "lookup_ns") && !strings.Contains(line, "WORSE"):
			t.Errorf("lookup_ns doubled and was not marked: %s", line)
		}
	}
	if !strings.Contains(out.String(), "1 end-to-end metric(s) worse") {
		t.Errorf("diff summary missing:\n%s", out.String())
	}
}
