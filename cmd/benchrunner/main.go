// Command benchrunner regenerates the paper's tables and figures as text.
//
// Usage:
//
//	benchrunner -exp fig8 -size 10000 -profiles acl1,fw1
//	benchrunner -exp all -size 500000 -trace 700000     # paper scale
//	benchrunner -exp batch -size 10000 -minbatch 1.5    # the CI perf gate
//	benchrunner -exp fig9 -cpuprofile cpu.pprof         # profile the hot paths
//
// Every experiment id maps to one table or figure of the evaluation
// section; docs/BENCHMARKS.md ("benchrunner") lists them with the knobs.
// Where the reproduction departs from the paper's method, the package that
// departs says why: direct fitting instead of gradient training
// (internal/rqrmi), the Go and AVX2 kernels instead of SSE/AVX intrinsics
// (internal/rqrmi/kernel.go), the synthetic ClassBench profiles
// (internal/classbench) and the NeuroCuts policy search
// (internal/classifiers/neurocuts). The batch experiment measures batched against
// per-packet lookup on the first profile over alternating pairs; with
// -minbatch R it exits 1 when the median pair ratio is below R. The
// performance record itself is nmbench (bench/).
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
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		minBatch = flag.Float64("minbatch", 0, "with -exp batch: exit non-zero unless the median batched/scalar throughput ratio >= this (0 disables; the CI perf gate)")
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
	var err error
	switch {
	case *minBatch <= 0:
		err = r.Run(*exp)
	case *exp == "batch":
		_, err = r.Batch(*minBatch)
	default:
		fmt.Fprintln(os.Stderr, "benchrunner: -minbatch needs -exp batch")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
		os.Exit(1)
	}
}
