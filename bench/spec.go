package main

import (
	"encoding/json"
	"io"
)

// This file is the single statement of what the benchmark measures: the
// workloads, the end-to-end metrics with their regression bounds, and the
// per-layer metrics of the traced run. BENCHMARK.json at the repository root
// is `nmbench -spec`; TestSpecMatchesBenchmarkJSON holds the two together.

// runSeconds is the measuring time of one run (BENCHMARK.json run_seconds).
// It is split 19:3 between the interleaved single-thread loop and the
// one-in-flight round-trip phase.
const runSeconds = 22

// workload is one set of inputs. Rules come from internal/classbench, the
// trace from internal/trace; inputs.go says what the run's seed draws.
type workload struct {
	name     string
	why      string
	profile  string
	rules    int
	zipf     bool // trace.Zipf95 instead of a uniform trace
	driftPct int  // table B: driftPct % random deletes + driftPct % new inserts
	builds   int  // Open calls per run; setup_s is the fastest
}

var workloads = []workload{
	{
		name:    "acl1-50k-uniform",
		why:     "large table, ~90% iSet coverage: RQ-RMI inference, search and validation dominate; training dominates setup_s",
		profile: "acl1", rules: 50_000, driftPct: 1, builds: 3,
	},
	{
		name:    "fw5-20k-zipf",
		why:     "73% coverage, skewed trace: the remainder stage is the largest share and hot rules stay cached; validation changes show nothing",
		profile: "fw5", rules: 20_000, zipf: true, driftPct: 5, builds: 5,
	},
	{
		name:    "ipc1-20k-churn",
		why:     "a quarter of the table moves through delete/insert: overlay compaction and remainder growth price update_kops and drifted_mpps",
		profile: "ipc1", rules: 20_000, driftPct: 25, builds: 5,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef describes one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics carry
// none.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is the gated set, the same on every workload. Bounds are
// calibrated in NOISE.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"index_bytes", "B", "lower", 0.01},
	{"classify_mpps", "Mpkt/s", "higher", 0.15},
	{"lookup_ns", "ns/pkt", "lower", 0.15},
	{"load_s", "s", "lower", 0.25},
	{"update_kops", "kops/s", "higher", 0.25},
	{"drifted_mpps", "Mpkt/s", "higher", 0.15},
	{"served_rtt_us", "us", "lower", 0.10},
}

// perLayer is what the traced run prints, grouped by the module whose public
// functions the number is measured through.
var perLayer = []metricDef{
	// iset
	{"iset.build_s", "s", "lower", 0},
	{"iset.count", "count", "lower", 0},
	{"iset.coverage", "ratio", "higher", 0},
	{"iset.remainder_rules", "count", "lower", 0},
	// rqrmi (+nn)
	{"rqrmi.train_s", "s", "lower", 0},
	{"rqrmi.model_bytes", "B", "lower", 0},
	{"rqrmi.max_error", "count", "lower", 0},
	{"rqrmi.batch_ns", "ns/key", "lower", 0},
	{"rqrmi.predict_ns", "ns/key", "lower", 0},
	{"rqrmi.search_ns", "ns/key", "lower", 0},
	{"rqrmi.hit_ratio", "ratio", "higher", 0},
	// classifiers (remainder)
	{"remainder.build_s", "s", "lower", 0},
	{"remainder.freeze_s", "s", "lower", 0},
	{"remainder.bytes", "B", "lower", 0},
	{"remainder.frozen_ns", "ns/pkt", "lower", 0},
	{"remainder.frozen_batch_ns", "ns/pkt", "lower", 0},
	{"remainder.win_ratio", "ratio", "lower", 0},
	{"remainder.rvh.frozen_ns", "ns/pkt", "lower", 0},
	{"remainder.rvh.bytes", "B", "lower", 0},
	// core engine
	{"core.build_self_s", "s", "lower", 0},
	{"core.batch_self_ns", "ns/pkt", "lower", 0},
	{"core.profile.inference_ns", "ns/pkt", "lower", 0},
	{"core.profile.search_ns", "ns/pkt", "lower", 0},
	{"core.profile.validate_ns", "ns/pkt", "lower", 0},
	{"core.profile.remainder_ns", "ns/pkt", "lower", 0},
	{"core.noearly_ns", "ns/pkt", "lower", 0},
	{"core.batch_parallel_ns", "ns/pkt", "lower", 0},
	{"core.allocs_per_batch", "count", "lower", 0},
	{"core.round_p50_ns", "ns/pkt", "lower", 0},
	{"core.contention_ratio", "ratio", "lower", 0},
	// core updates
	{"core.insert_p50_us", "us", "lower", 0},
	{"core.insert_p99_us", "us", "lower", 0},
	{"core.delete_p50_us", "us", "lower", 0},
	{"core.delete_p99_us", "us", "lower", 0},
	{"core.compactions", "count", "lower", 0},
	{"core.overlay_rules", "count", "lower", 0},
	{"core.remainder_fraction", "ratio", "lower", 0},
	{"core.lookup_under_update_ns", "ns/pkt", "lower", 0},
	{"core.retrain_s", "s", "lower", 0},
	{"core.retrained_mpps", "Mpkt/s", "higher", 0},
	// core codec
	{"core.save_s", "s", "lower", 0},
	{"core.table_bytes", "B", "lower", 0},
	// core cluster
	{"cluster.build_s", "s", "lower", 0},
	{"cluster.batch_ns", "ns/pkt", "lower", 0},
	{"cluster.replicated_rules", "count", "lower", 0},
	// serve
	{"serve.mpps", "Mpkt/s", "higher", 0},
	{"serve.batch_fill", "count", "higher", 0},
	{"serve.batches", "count", "lower", 0},
	{"serve.server_lat_us", "us", "lower", 0},
	{"serve.wire_us", "us", "lower", 0},
	{"serve.lat_p50_us", "us", "lower", 0},
	{"serve.lat_p99_us", "us", "lower", 0},
	{"serve.rtt_p99_us", "us", "lower", 0},
	{"serve.direct_ratio", "ratio", "higher", 0},
	{"serve.cpu_us_per_kreq", "us", "lower", 0},
	{"serve.errors", "count", "lower", 0},
	// baselines: the denominators of the paper's speed-up and compression claims
	{"baseline.tuplemerge.lookup_ns", "ns/pkt", "lower", 0},
	{"baseline.tuplemerge.index_bytes", "B", "lower", 0},
	{"baseline.cutsplit.lookup_ns", "ns/pkt", "lower", 0},
	{"baseline.cutsplit.index_bytes", "B", "lower", 0},
	// bench
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// writeSpec renders BENCHMARK.json.
func writeSpec(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, x := range workloads {
		spec.Workloads = append(spec.Workloads, wl{x.name, x.why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{m.name, m.unit, m.better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}
