// Command nmbench is the repository's benchmark: three workloads, nine
// end-to-end metrics measured through the public nuevomatch.Table and the
// serve client, and a separate traced run that replays every layer through its
// public functions. See README.md for the metric and workload tables and
// NOISE.md for how the regression bounds were calibrated.
//
//	nmbench -workload NAME -seed S -seconds N -trace 0   end-to-end metrics
//	nmbench -workload NAME -seed S -seconds N -trace 1   per-layer metrics + spans
//	nmbench -diff OLD NEW                                compare two sets of records
//	nmbench -spec                                        print BENCHMARK.json
//
// A run prints every metric as "name value unit", then ops_attempted and
// ops_failed, and as its last line one JSON object with the keys correct,
// attempted, failed and metrics. It exits non-zero when any answer was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"nuevomatch"
	"nuevomatch/internal/cpu"
)

// machine names the box a record was measured on.
type machine struct {
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Features   []string `json:"cpu_features"`
	Kernel     string   `json:"rqrmi_kernel"`
	GoVersion  string   `json:"go_version"`
}

func thisMachine() machine {
	return machine{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Features: cpu.Features(), Kernel: nuevomatch.KernelName(),
		GoVersion: runtime.Version(),
	}
}

// record is the file every run writes and -diff reads.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Machine   machine                `json:"machine"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see -spec)")
		seed    = flag.Int64("seed", 1, "seed of the trace: its order and the point each packet takes inside its rule")
		seconds = flag.Float64("seconds", runSeconds, "measuring time of the run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		out     = flag.String("out", "", "record file (default .bench_out/<workload>-s<seed>-t<trace>.json)")
		spans   = flag.String("spans", "", "span file of the traced run (default .bench_out/<workload>-s<seed>.spans.json)")
		diff    = flag.Bool("diff", false, "compare two sets of records: -diff OLD NEW (each a file, a directory or a comma list)")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()

	switch {
	case *spec:
		if err := writeSpec(os.Stdout); err != nil {
			fatal(err)
		}
		return
	case *diff:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-diff wants two arguments: OLD NEW"))
		}
		if err := runDiff(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}

	w, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *name, workloadNames()))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	if *out == "" {
		*out = filepath.Join(".bench_out", fmt.Sprintf("%s-s%d-t%d.json", w.name, *seed, *trace))
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_out", fmt.Sprintf("%s-s%d.spans.json", w.name, *seed))
	}

	in, err := makeInputs(w, *seed)
	if err != nil {
		fatal(err)
	}
	var res *result
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		res, err = runTraced(in, *seconds, *spans)
	} else {
		res, err = runUntraced(in, *seconds)
	}
	if err != nil {
		fatal(err)
	}

	rec := record{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Machine: thisMachine(),
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics,
	}
	if err := report(rec, res.notes, defs); err != nil {
		fatal(err)
	}
	if err := writeRecord(*out, rec); err != nil {
		fatal(err)
	}
	if !rec.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nmbench:", err)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// report prints the human-readable lines and then the contract's JSON line.
// It refuses to report a run that did not produce every declared metric.
func report(rec record, notes []string, defs []metricDef) error {
	for _, d := range defs {
		m, ok := rec.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("%s %v %s\n", d.name, m.Value, m.Unit)
	}
	for _, n := range notes {
		fmt.Println("#", n)
	}
	fmt.Printf("ops_attempted %d\nops_failed %d\n", rec.Attempted, rec.Failed)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
