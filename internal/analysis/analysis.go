// Package analysis is the evaluation harness: it builds the paper's
// classifier configurations, measures throughput/latency/memory the way §5.1
// describes (uniform and skewed traces, single-core with early termination,
// two readers over halves of the trace), and regenerates every table and figure
// of the evaluation as text. cmd/benchrunner is a thin CLI over this
// package; bench_test.go wires the same experiments into testing.B.
package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"nuevomatch/internal/classifiers/cutsplit"
	"nuevomatch/internal/classifiers/neurocuts"
	"nuevomatch/internal/classifiers/tuplemerge"
	"nuevomatch/internal/core"
	"nuevomatch/internal/rqrmi"
	"nuevomatch/internal/rules"
)

// Baseline names used throughout the evaluation (§5.1 notation).
const (
	CS = "cs" // CutSplit
	NC = "nc" // NeuroCuts
	TM = "tm" // TupleMerge
)

// Baselines lists the three baselines in paper order.
func Baselines() []string { return []string{CS, NC, TM} }

// BuildBaseline constructs a stand-alone baseline classifier with the
// paper's evaluated configuration (§5.1).
func BuildBaseline(name string, rs *rules.RuleSet) (rules.Classifier, error) {
	switch name {
	case CS:
		return cutsplit.New(rs, cutsplit.DefaultConfig()), nil
	case NC:
		return neurocuts.New(rs, neurocuts.DefaultConfig()), nil
	case TM:
		return tuplemerge.New(rs, tuplemerge.DefaultConfig()), nil
	default:
		return nil, fmt.Errorf("analysis: unknown baseline %q", name)
	}
}

// remainderBuilder returns the rules.Builder for a baseline name.
func remainderBuilder(name string) (rules.Builder, error) {
	switch name {
	case CS:
		return cutsplit.Build, nil
	case NC:
		return neurocuts.Build, nil
	case TM:
		return tuplemerge.Build, nil
	default:
		return nil, fmt.Errorf("analysis: unknown baseline %q", name)
	}
}

// NMOptions returns the NuevoMatch build options the paper pairs with each
// baseline: 25% minimum iSet coverage and 1–2 iSets against cs/nc, 5% and 4
// iSets against tm (§5.1), error threshold 64.
func NMOptions(baseline string, targetError int) (core.Options, error) {
	rem, err := remainderBuilder(baseline)
	if err != nil {
		return core.Options{}, err
	}
	opt := core.Options{Remainder: rem, RQRMI: rqrmi.Config{TargetError: targetError}}
	switch baseline {
	case TM:
		opt.MaxISets = 4
		opt.MinCoverage = 0.05
	default:
		opt.MaxISets = 2
		opt.MinCoverage = 0.25
	}
	return opt, nil
}

// BuildNM trains NuevoMatch with the given baseline as remainder.
func BuildNM(baseline string, rs *rules.RuleSet) (*core.Engine, error) {
	opt, err := NMOptions(baseline, 64)
	if err != nil {
		return nil, err
	}
	return core.Build(rs, opt)
}

// --- measurement ------------------------------------------------------

// MinMeasure is the minimum duration a throughput measurement spins for.
var MinMeasure = 200 * time.Millisecond

// Throughput1 measures single-core packets/second of plain Lookup over the
// trace, repeating it until MinMeasure has elapsed (after one warmup pass,
// §5.1.1's warmup protocol condensed).
func Throughput1(c rules.Classifier, pkts []rules.Packet) float64 {
	for _, p := range pkts { // warmup
		c.Lookup(p)
	}
	var done int
	start := time.Now()
	for time.Since(start) < MinMeasure {
		for _, p := range pkts {
			c.Lookup(p)
		}
		done += len(pkts)
	}
	return float64(done) / time.Since(start).Seconds()
}

// Latency1 is the single-core per-packet latency; with one core it is the
// reciprocal of throughput (§5.2 "for the single core execution the latency
// and the throughput speedups are the same").
func Latency1(c rules.Classifier, pkts []rules.Packet) time.Duration {
	pps := Throughput1(c, pkts)
	if pps == 0 {
		return 0
	}
	return time.Duration(float64(time.Second) / pps)
}

// BatchSize is the paper's batching factor (§5.1).
const BatchSize = 128

// ThroughputBatch measures single-core packets/second of LookupBatch over
// the trace in BatchSize chunks, repeating it until MinMeasure has elapsed
// (after a warmup of up to eight chunks). A tail shorter than one chunk is
// not classified.
func ThroughputBatch(e *core.Engine, pkts []rules.Packet) float64 {
	batch := min(BatchSize, len(pkts))
	if batch == 0 {
		return 0
	}
	out := make([]int, batch)
	n := len(pkts) / batch * batch
	for off := 0; off < n && off < 8*batch; off += batch { // warmup
		e.LookupBatch(pkts[off:off+batch], out)
	}
	var done int
	start := time.Now()
	for time.Since(start) < MinMeasure {
		for off := 0; off < n; off += batch {
			e.LookupBatch(pkts[off:off+batch], out)
		}
		done += n
	}
	return float64(done) / time.Since(start).Seconds()
}

// Throughput2 measures the two-core configuration: two readers, each
// classifying half of the trace on its own goroutine. Every lookup runs on
// its caller's goroutine, so more cores come only from more callers.
func Throughput2(c rules.Classifier, pkts []rules.Packet) float64 {
	half := len(pkts) / 2
	for _, p := range pkts[:half] { // warmup
		c.Lookup(p)
	}
	var done int
	start := time.Now()
	for time.Since(start) < MinMeasure {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range pkts[:half] {
				c.Lookup(p)
			}
		}()
		for _, p := range pkts[half:] {
			c.Lookup(p)
		}
		wg.Wait()
		done += len(pkts)
	}
	return float64(done) / time.Since(start).Seconds()
}

// GeoMean returns the geometric mean of positive values (the paper's "GM"
// columns); non-positive values are skipped.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// MeanStd returns mean and standard deviation.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

// SampleRuleSet thins a rule-set to at most n rules, preserving order, so
// large-scale experiments can be laptop-scaled without changing structure.
func SampleRuleSet(rng *rand.Rand, rs *rules.RuleSet, n int) *rules.RuleSet {
	if rs.Len() <= n {
		return rs
	}
	idx := rng.Perm(rs.Len())[:n]
	sort.Ints(idx)
	return rs.Subset(idx)
}
