package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// readRecords loads a set of run records: arg is a file, a directory (every
// *.json in it that parses as a record) or a comma-separated list of those.
func readRecords(arg string) ([]record, error) {
	var recs []record
	for _, p := range strings.Split(arg, ",") {
		files := []string{p}
		if st, err := os.Stat(p); err != nil {
			return nil, err
		} else if st.IsDir() {
			if files, err = filepath.Glob(filepath.Join(p, "*.json")); err != nil {
				return nil, err
			}
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			var r record
			// Span files share the directory; they are arrays and do not parse.
			if json.Unmarshal(b, &r) != nil || r.Workload == "" {
				continue
			}
			recs = append(recs, r)
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no run records in %s", arg)
	}
	return recs, nil
}

// values collects one metric's values over the records of one workload.
func values(recs []record, workload, metric string, trace int) []float64 {
	var v []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// runDiff prints, per workload and metric, both sets' medians and quartiles
// and the change of the median. An end-to-end metric is marked only when its
// median moved by more than the metric's bound: WORSE in the bad direction,
// better in the good one. Per-layer metrics have no bound and are never
// marked. A machine that differs between the sets is named first, because
// then the numbers do not compare.
func runDiff(w io.Writer, oldArg, newArg string) error {
	oldRecs, err := readRecords(oldArg)
	if err != nil {
		return err
	}
	newRecs, err := readRecords(newArg)
	if err != nil {
		return err
	}
	om, _ := json.Marshal(oldRecs[0].Machine)
	nm, _ := json.Marshal(newRecs[0].Machine)
	if string(om) != string(nm) {
		fmt.Fprintf(w, "machines differ:\n  old %s\n  new %s\n", om, nm)
	}

	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3] n\tnew median [q1, q3] n\tdelta\tbound\t")
	regressions := 0
	for _, wl := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				ov, nv := values(oldRecs, wl.name, d.name, trace), values(newRecs, wl.name, d.name, trace)
				if len(ov) == 0 || len(nv) == 0 {
					continue
				}
				oq1, omed, oq3 := quartiles(ov)
				nq1, nmed, nq3 := quartiles(nv)
				delta := (nmed - omed) / omed
				mark, bound := "", "-"
				if d.bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*d.bound)
					worse := delta
					if d.better == "higher" {
						worse = -delta
					}
					switch {
					case worse > d.bound:
						mark = "WORSE"
						regressions++
					case worse < -d.bound:
						mark = "better"
					}
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g] %d\t%.5g [%.5g, %.5g] %d\t%+.1f%%\t%s\t%s\n",
					wl.name, d.name, d.unit, omed, oq1, oq3, len(ov), nmed, nq1, nq3, len(nv), 100*delta, bound, mark)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d end-to-end metric(s) worse than their bound\n", regressions)
	return nil
}
