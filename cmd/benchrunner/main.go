// Command benchrunner regenerates the paper's tables and figures as text,
// and emits machine-readable performance artifacts for the perf trajectory.
//
// Usage:
//
//	benchrunner -exp fig8 -size 10000 -profiles acl1,fw1
//	benchrunner -exp all -size 500000 -trace 700000   # paper scale
//	benchrunner -benchjson . -size 10000              # write BENCH_acl1_10000.json
//	benchrunner -benchjson . -cpuprofile cpu.pprof    # profile the hot paths
//
// Every experiment id maps to one table or figure of the evaluation
// section; see EXPERIMENTS.md for the index and DESIGN.md for the
// methodology substitutions. With -benchjson DIR the runner skips the
// experiments and instead measures the engine's lookup paths (per-packet
// and batched: throughput, p50/p99 latency, memory footprint) on one profile, writing BENCH_<profile>_<size>.json into DIR.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"nuevomatch/internal/analysis"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id: "+strings.Join(analysis.Experiments(), ", ")+", or all")
		size     = flag.Int("size", 10000, "primary rule-set size (paper: 500000)")
		small    = flag.String("sizes", "1000,10000", "comma-separated scaling ladder for fig11/fig13/fig17/table2")
		profiles = flag.String("profiles", "", "comma-separated ClassBench profiles (default: all 12)")
		traceLen = flag.Int("trace", 20000, "packets per trace (paper: 700000)")
		stanford = flag.Int("stanford", 20000, "Stanford backbone rule-set size (paper: ~183376)")
		seed     = flag.Int64("seed", 1, "trace generation seed")
		benchjs  = flag.String("benchjson", "", "directory to write a BENCH_<name>.json perf artifact into (skips -exp)")
		churnOps = flag.Int("churnops", 20000, "churn-experiment operations per profile recorded into the benchjson artifact (0 disables)")
		shards   = flag.Int("shards", 2, "cluster-experiment shard count recorded into the benchjson artifact (0 disables)")
		serveCli = flag.Int("serve", 8, "serving-experiment client count recorded into the benchjson artifact (0 disables)")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		remaind  = flag.String("remainder", "", "with -benchjson: remainder classifier name (tuplemerge(tm) | rvh; default tuplemerge)")
		minBatch = flag.Float64("minbatch", 0, "with -benchjson: exit non-zero unless batch_speedup >= this ratio (0 disables; the CI perf gate)")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *benchjs != "" {
		profile := "acl1"
		if *profiles != "" {
			profile = strings.Split(*profiles, ",")[0]
		}
		a, err := analysis.RunBenchArtifact(profile, *size, *traceLen, *seed, *remaind)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			os.Exit(1)
		}
		if err := a.AttachChurn(*churnOps, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: churn: %v\n", err)
			os.Exit(1)
		}
		if err := a.AttachCluster(*shards, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: cluster: %v\n", err)
			os.Exit(1)
		}
		if err := a.AttachServing(*serveCli, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: serving: %v\n", err)
			os.Exit(1)
		}
		path, err := analysis.WriteBenchArtifact(*benchjs, a)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
		m := a.Machine
		fmt.Printf("  machine:         %s/%s, %d CPUs (GOMAXPROCS %d), simd %v, kernel %s\n",
			m.GoOS, m.GoArch, m.NumCPU, m.GOMAXPROCS, m.SIMDFeatures, m.Kernel)
		fmt.Printf("  conformance:     batch vs scalar %d/%d packets identical\n",
			a.BatchVerifiedPackets-a.BatchMismatches, a.BatchVerifiedPackets)
		fmt.Printf("  lookup:          %12.0f pps  p50 %6.0f ns  p99 %6.0f ns  %.2f allocs/op\n",
			a.Lookup.ThroughputPPS, a.Lookup.P50Nanos, a.Lookup.P99Nanos, a.Lookup.AllocsPerOp)
		fmt.Printf("  lookup_batch:    %12.0f pps  p50 %6.0f ns  p99 %6.0f ns  %.2f allocs/op  (%.2fx speedup)\n",
			a.LookupBatch.ThroughputPPS, a.LookupBatch.P50Nanos, a.LookupBatch.P99Nanos, a.LookupBatch.AllocsPerOp, a.BatchSpeedup)
		fmt.Printf("  memory:          %d B total (%d B iSets + %d B remainder)\n",
			a.Engine.TotalBytes, a.Engine.ISetBytes, a.Engine.RemainderBytes)
		fmt.Printf("  remainder:       %s\n", a.Engine.RemainderBackend)
		fmt.Printf("  persistence:     build %.2fs -> save %.1fms, load %.1fms (%.0fx faster than build), %d B table, %d/%d verified\n",
			a.Persistence.BuildSeconds, a.Persistence.SaveSeconds*1e3, a.Persistence.LoadSeconds*1e3,
			a.Persistence.LoadSpeedup, a.Persistence.TableBytes,
			a.Persistence.VerifiedPackets-a.Persistence.Mismatches, a.Persistence.VerifiedPackets)
		if a.Churn != nil {
			fmt.Printf("  churn:           %d ops, %d retrains, %d mismatches\n",
				a.Churn.TotalOps, a.Churn.TotalRetrains, a.Churn.Mismatches)
			for _, p := range a.Churn.Profiles {
				fmt.Printf("    %-5s %6d ops  %d retrains (%s)  swap max %6.0f µs  probe p99 %5.0f ns max %6.0f ns  remfrac %.2f\n",
					p.Profile, p.Ops, p.Retrains, p.Trigger, p.SwapMaxNanos/1e3,
					p.Probe.P99, p.Probe.Max, p.RemainderFractionEnd)
			}
		}
		if c := a.Cluster; c != nil {
			fmt.Printf("  cluster:         %d shards (%s on field %d), %d/%d rules replicated, %d mismatches\n",
				c.Shards, c.Kind, c.PartitionField, c.ReplicatedRules, c.LiveRules, c.Mismatches)
			fmt.Printf("    merged batch   %12.0f pps  (%.2fx single engine, report-only)\n",
				c.LookupBatch.ThroughputPPS, c.MergedVsSingleBatch)
			for s, sp := range c.PerShard {
				fmt.Printf("    shard %02d       %6d rules  %6d trace pkts  %12.0f pps batch\n",
					s, sp.Rules, sp.TracePackets, sp.ThroughputPPS)
			}
			if c.Health != "" && c.Health != "healthy" {
				fmt.Printf("    health         %s (%d reasons)\n", c.Health, len(c.HealthReasons))
			}
		}
		if sv := a.Serving; sv != nil {
			fmt.Printf("  serving:         %d clients (window %d): %12.0f pps served (%.2fx of direct batch), fill %.1f/%d, %d mismatches\n",
				sv.Clients, sv.Window, sv.CoalescedPPS, sv.CoalescedVsDirect, sv.AvgBatchFill, sv.BatchSize, sv.Mismatches)
			fmt.Printf("    e2e latency    p50 %6.0f µs  p99 %6.0f µs\n", sv.E2EP50US, sv.E2EP99US)
		}
		if a.BatchMismatches != 0 {
			fmt.Fprintf(os.Stderr, "benchrunner: batched path disagreed with scalar path on %d/%d packets\n",
				a.BatchMismatches, a.BatchVerifiedPackets)
			os.Exit(1)
		}
		if a.Serving != nil && a.Serving.Mismatches != 0 {
			fmt.Fprintf(os.Stderr, "benchrunner: serving path disagreed with the direct engine on %d/%d requests\n",
				a.Serving.Mismatches, a.Serving.Requests)
			os.Exit(1)
		}
		if *minBatch > 0 && a.BatchSpeedup < *minBatch {
			fmt.Fprintf(os.Stderr, "benchrunner: batch speedup %.2fx below the required %.2fx (machine: %d CPUs, kernel %s)\n",
				a.BatchSpeedup, *minBatch, m.NumCPU, m.Kernel)
			os.Exit(1)
		}
		return
	}

	cfg := analysis.DefaultConfig(os.Stdout)
	cfg.Size = *size
	cfg.TraceLen = *traceLen
	cfg.StanfordSize = *stanford
	cfg.Seed = *seed
	if *profiles != "" {
		cfg.Profiles = strings.Split(*profiles, ",")
	}
	if *small != "" {
		cfg.SmallSizes = nil
		for _, s := range strings.Split(*small, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "benchrunner: invalid size %q\n", s)
				os.Exit(2)
			}
			cfg.SmallSizes = append(cfg.SmallSizes, n)
		}
	}

	r := analysis.NewRunner(cfg)
	if err := r.Run(*exp); err != nil {
		fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
		os.Exit(1)
	}
}
