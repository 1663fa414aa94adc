package analysis

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/rqrmi"
	"nuevomatch/internal/trace"
)

// tinyConfig keeps every experiment fast enough for unit testing.
func tinyConfig(buf *bytes.Buffer) Config {
	return Config{
		W:            buf,
		Size:         600,
		SmallSizes:   []int{200, 600},
		Profiles:     []string{"acl1", "fw1"},
		TraceLen:     2000,
		StanfordSize: 3000,
		Seed:         1,
	}
}

func init() {
	// Shorten measurements for tests; benchrunner restores the default.
	MinMeasure = 10 * time.Millisecond
}

func TestAllExperimentsRun(t *testing.T) {
	var buf bytes.Buffer
	r := NewRunner(tinyConfig(&buf))
	for _, exp := range Experiments() {
		buf.Reset()
		if err := r.Run(exp); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", exp)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	r := NewRunner(tinyConfig(&buf))
	if err := r.Run("nope"); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestRunAll(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Profiles = []string{"acl1"}
	cfg.SmallSizes = []int{200}
	cfg.Size = 400
	r := NewRunner(cfg)
	if err := r.Run("all"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "Table 2", "Figure 8", "Figure 14", "§5.3.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("combined output missing %q", want)
		}
	}
}

func TestBuildBaselineNames(t *testing.T) {
	rs := classbench.Generate(classbench.Profiles()[0], 200)
	for _, b := range Baselines() {
		c, err := BuildBaseline(b, rs)
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			t.Fatalf("%s: nil classifier", b)
		}
	}
	if _, err := BuildBaseline("bogus", rs); err == nil {
		t.Error("bogus baseline must error")
	}
	if _, err := NMOptions("bogus", 64); err == nil {
		t.Error("bogus baseline must error in NMOptions")
	}
}

func TestNMOptionsPerBaseline(t *testing.T) {
	tm, err := NMOptions(TM, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tm.MaxISets != 4 || tm.MinCoverage != 0.05 {
		t.Errorf("tm options = %+v, want 4 iSets at 5%%", tm)
	}
	cs, err := NMOptions(CS, 64)
	if err != nil {
		t.Fatal(err)
	}
	if cs.MaxISets != 2 || cs.MinCoverage != 0.25 {
		t.Errorf("cs options = %+v, want 2 iSets at 25%%", cs)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); got != 4 {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v", got)
	}
	if got := GeoMean([]float64{-1, 0, 4}); got != 4 {
		t.Errorf("GeoMean with non-positives = %v, want 4", got)
	}
}

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float64{2, 4, 6})
	if m != 4 {
		t.Errorf("mean = %v", m)
	}
	if s < 1.6 || s > 1.7 {
		t.Errorf("std = %v, want ~1.63", s)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Error("MeanStd(nil) must be zero")
	}
}

func TestThroughputMeasuresAgree(t *testing.T) {
	rs := classbench.Generate(classbench.Profiles()[0], 300)
	c, err := BuildBaseline(TM, rs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	tr := trace.Uniform(rng, rs, 2000)
	t1 := Throughput1(c, tr.Packets)
	if t1 <= 0 {
		t.Fatal("non-positive throughput")
	}
	l1 := Latency1(c, tr.Packets)
	if l1 <= 0 {
		t.Fatal("non-positive latency")
	}
	// Two instances on two goroutines should not be slower than one. The
	// ratio is meaningless under the race detector, whose instrumentation
	// multiplies the synchronization costs being measured. One sample of
	// each lasts only a few milliseconds, so a single descheduling can sink
	// either; compare the best of five paired samples.
	best1, best2 := 0.0, 0.0
	for i := 0; i < 5; i++ {
		t2 := Throughput2(c, tr.Packets)
		if t2 <= 0 {
			t.Fatal("non-positive 2-core throughput")
		}
		best1, best2 = max(best1, Throughput1(c, tr.Packets)), max(best2, t2)
	}
	if !raceEnabled && best2 < best1*0.8 {
		t.Errorf("best 2-core throughput %.0f < 0.8x best single-core %.0f", best2, best1)
	}
}

func TestCachePressureStartsAndStops(t *testing.T) {
	p := StartCachePressure(2, 1<<20)
	time.Sleep(20 * time.Millisecond)
	p.Stop() // must not deadlock
}

func TestSampleRuleSet(t *testing.T) {
	rs := classbench.Generate(classbench.Profiles()[0], 500)
	rng := rand.New(rand.NewSource(3))
	sub := SampleRuleSet(rng, rs, 100)
	if sub.Len() != 100 {
		t.Fatalf("sampled %d, want 100", sub.Len())
	}
	if same := SampleRuleSet(rng, rs, 1000); same != rs {
		t.Error("sampling above size must return the input")
	}
	// Order preserved (IDs strictly increasing).
	for i := 1; i < sub.Len(); i++ {
		if sub.Rules[i].ID <= sub.Rules[i-1].ID {
			t.Fatal("sample must preserve order")
		}
	}
}

// TestBuildNMTreeRemainders builds NuevoMatch over the paper's static-tree
// remainders and checks both lookup paths against the linear reference.
func TestBuildNMTreeRemainders(t *testing.T) {
	prof, err := classbench.ProfileByName("fw1")
	if err != nil {
		t.Fatal(err)
	}
	rs := classbench.Generate(prof, 500)
	tr := trace.Uniform(rand.New(rand.NewSource(3)), rs, 2000)
	for baseline, backend := range map[string]string{CS: "cutsplit", NC: "neurocuts"} {
		e, err := BuildNM(baseline, rs)
		if err != nil {
			t.Fatalf("%s: %v", baseline, err)
		}
		if got := e.Stats().RemainderBackend; got != backend {
			t.Fatalf("%s: remainder backend %q, want %q", baseline, got, backend)
		}
		out := make([]int, len(tr.Packets))
		e.LookupBatch(tr.Packets, out)
		for i, p := range tr.Packets {
			want := rs.MatchID(p)
			if got := e.Lookup(p); got != want || out[i] != want {
				t.Fatalf("%s: packet %v: Lookup %d, LookupBatch %d, want %d", baseline, p, got, out[i], want)
			}
		}
	}
}

// TestBatchGate runs the batch experiment at unit-test scale: the
// conformance pass covers the whole trace, both paths report a throughput,
// every pair reports a ratio, the gated median lies inside the quartiles,
// and a bar the ratio cannot meet fails the experiment (benchrunner's
// -minbatch exit path).
func TestBatchGate(t *testing.T) {
	old := MinMeasure
	MinMeasure = 5 * time.Millisecond
	defer func() { MinMeasure = old }()
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Profiles = []string{"acl1"}
	cfg.Size = 400
	cfg.TraceLen = 1000
	r := NewRunner(cfg)

	res, err := r.Batch(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScalarPPS <= 0 || res.BatchPPS <= 0 || res.Ratio <= 0 {
		t.Fatalf("non-positive throughput: %+v", res)
	}
	if len(res.Ratios) != batchPairs || res.RatioQ1 > res.Ratio || res.Ratio > res.RatioQ3 {
		t.Fatalf("ratios %v: median %.2f, quartiles %.2f-%.2f, want %d pairs with the median inside the quartiles",
			res.Ratios, res.Ratio, res.RatioQ1, res.RatioQ3, batchPairs)
	}
	if res.Profile != "acl1" || res.Rules != 400 {
		t.Fatalf("measured %s × %d rules, want acl1 × 400", res.Profile, res.Rules)
	}
	if res.Verified != cfg.TraceLen || res.Mismatches != 0 {
		t.Fatalf("conformance pass verified %d packets with %d mismatches, want %d with 0", res.Verified, res.Mismatches, cfg.TraceLen)
	}
	if !strings.Contains(buf.String(), "kernel "+rqrmi.KernelName()) {
		t.Errorf("output does not name the machine's kernel:\n%s", buf.String())
	}

	if _, err := r.Batch(1e9); err == nil || !strings.Contains(err.Error(), "below the required") {
		t.Fatalf("Batch(1e9) = %v, want the below-the-bar error", err)
	}
}
