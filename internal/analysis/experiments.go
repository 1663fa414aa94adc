package analysis

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/core"
	"nuevomatch/internal/cpu"
	"nuevomatch/internal/iset"
	"nuevomatch/internal/rqrmi"
	"nuevomatch/internal/rules"
	"nuevomatch/internal/stanford"
	"nuevomatch/internal/trace"
)

// Config scales the experiments. The paper's headline runs use Size=500000
// and all twelve profiles; the defaults here are laptop-scale and every
// experiment accepts the full-scale values through cmd/benchrunner flags.
type Config struct {
	W io.Writer
	// Size is the primary rule-set size (the paper's "500K" experiments).
	Size int
	// SmallSizes is the scaling ladder for Figures 11/13/17 and Table 2.
	SmallSizes []int
	// Profiles are ClassBench profile names; empty means all twelve.
	Profiles []string
	// TraceLen is the number of packets per generated trace (paper: 700K).
	TraceLen int
	// StanfordSize scales the four backbone rule-sets (paper: ~183K each).
	StanfordSize int
	// Seed drives trace generation.
	Seed int64
}

// DefaultConfig returns laptop-scale settings.
func DefaultConfig(w io.Writer) Config {
	return Config{
		W:            w,
		Size:         10000,
		SmallSizes:   []int{1000, 10000},
		Profiles:     nil,
		TraceLen:     20000,
		StanfordSize: 20000,
		Seed:         1,
	}
}

// Runner executes experiments, caching built rule-sets, classifiers, and
// engines across experiments (a full `-exp all` run reuses most builds).
type Runner struct {
	cfg      Config
	rsCache  map[string]*rules.RuleSet
	clsCache map[string]rules.Classifier
	trCache  map[string]*trace.Trace
}

// NewRunner returns a runner over the config.
func NewRunner(cfg Config) *Runner {
	if cfg.W == nil {
		panic("analysis: Config.W is required")
	}
	if cfg.Size <= 0 {
		cfg.Size = 10000
	}
	if cfg.TraceLen <= 0 {
		cfg.TraceLen = 20000
	}
	if cfg.StanfordSize <= 0 {
		cfg.StanfordSize = 20000
	}
	if len(cfg.SmallSizes) == 0 {
		cfg.SmallSizes = []int{1000, 10000}
	}
	return &Runner{
		cfg:      cfg,
		rsCache:  make(map[string]*rules.RuleSet),
		clsCache: make(map[string]rules.Classifier),
		trCache:  make(map[string]*trace.Trace),
	}
}

// Experiments lists the runnable experiment ids in paper order.
func Experiments() []string {
	return []string{
		"table1", "table2", "table3", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig17", "fields",
		"contention", "batch",
	}
}

// Run executes one experiment by id ("all" runs every one).
func (r *Runner) Run(exp string) error {
	switch exp {
	case "all":
		for _, e := range Experiments() {
			if err := r.Run(e); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
			fmt.Fprintln(r.cfg.W)
		}
		return nil
	case "table1":
		return r.Table1()
	case "table2":
		return r.Table2()
	case "table3":
		return r.Table3()
	case "fig7":
		return r.Fig7()
	case "fig8":
		return r.Fig8()
	case "fig9":
		return r.Fig9()
	case "fig10":
		return r.Fig10()
	case "fig11":
		return r.Fig11()
	case "fig12":
		return r.Fig12()
	case "fig13":
		return r.Fig13()
	case "fig14":
		return r.Fig14()
	case "fig15":
		return r.Fig15()
	case "fig17":
		return r.Fig17()
	case "fields":
		return r.Fields()
	case "contention":
		return r.Contention()
	case "batch":
		_, err := r.Batch(0)
		return err
	default:
		return fmt.Errorf("analysis: unknown experiment %q (have %s)", exp, strings.Join(Experiments(), ", "))
	}
}

func (r *Runner) profiles() []classbench.Profile {
	all := classbench.Profiles()
	if len(r.cfg.Profiles) == 0 {
		return all
	}
	var out []classbench.Profile
	for _, name := range r.cfg.Profiles {
		for _, p := range all {
			if strings.EqualFold(p.Name, name) {
				out = append(out, p)
			}
		}
	}
	return out
}

func (r *Runner) ruleSet(p classbench.Profile, size int) *rules.RuleSet {
	key := fmt.Sprintf("%s/%d", p.Name, size)
	if rs, ok := r.rsCache[key]; ok {
		return rs
	}
	rs := classbench.Generate(p, size)
	r.rsCache[key] = rs
	return rs
}

func (r *Runner) uniformTrace(key string, rs *rules.RuleSet) *trace.Trace {
	if tr, ok := r.trCache[key]; ok {
		return tr
	}
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	tr := trace.Uniform(rng, rs, r.cfg.TraceLen)
	r.trCache[key] = tr
	return tr
}

func (r *Runner) classifier(kind, key string, build func() (rules.Classifier, error)) (rules.Classifier, error) {
	ck := kind + "/" + key
	if c, ok := r.clsCache[ck]; ok {
		return c, nil
	}
	c, err := build()
	if err != nil {
		return nil, err
	}
	r.clsCache[ck] = c
	return c, nil
}

func (r *Runner) baseline(name, key string, rs *rules.RuleSet) (rules.Classifier, error) {
	return r.classifier("base-"+name, key, func() (rules.Classifier, error) {
		return BuildBaseline(name, rs)
	})
}

func (r *Runner) engine(baseline, key string, rs *rules.RuleSet) (*core.Engine, error) {
	c, err := r.classifier("nm-"+baseline, key, func() (rules.Classifier, error) {
		return BuildNM(baseline, rs)
	})
	if err != nil {
		return nil, err
	}
	return c.(*core.Engine), nil
}

// --- Table 1 -----------------------------------------------------------

// Table1 reproduces the vectorization table with the kernels that serve
// lookups: per-key submodel inference time for the float64 scalar
// reference (Serial), the pure-Go float32 batch kernel (4 lanes per pass)
// and the AVX2 assembly (8 lanes; NaN on hosts without it). Go has no vector
// intrinsics, so the AVX2 row is the only true SIMD row (rqrmi/kernel.go).
func (r *Runner) Table1() error {
	w := r.cfg.W
	fmt.Fprintln(w, "Table 1: submodel inference time vs batch width (paper: Serial 126ns, SSE 62ns, AVX 49ns)")
	k := rqrmi.NewKernel(8, 7)
	keys := make([]uint32, 4096)
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	for i := range keys {
		keys[i] = rng.Uint32()
	}
	measure := func(f func() int) float64 {
		n := 0
		start := time.Now()
		for time.Since(start) < MinMeasure {
			n += f()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	var sink float64
	serial := measure(func() int {
		for _, key := range keys {
			sink += k.Eval1(key)
		}
		return len(keys)
	})
	var in8 [8]uint32
	var out8 [8]float32
	var sink32 float32
	batchF32 := func(useAsm bool) func() int {
		return func() int {
			for i := 0; i+8 <= len(keys); i += 8 {
				copy(in8[:], keys[i:i+8])
				k.Eval8F32(&in8, &out8, useAsm)
				sink32 += out8[0]
			}
			return len(keys)
		}
	}
	goF32 := measure(batchF32(false))
	avx2 := math.NaN()
	if rqrmi.HasAsmKernel() {
		avx2 = measure(batchF32(true))
	}
	fmt.Fprintf(w, "  %-14s %5s %8s\n", "Kernel", "Lanes", "ns/key")
	fmt.Fprintf(w, "  %-14s %5d %8.1f\n", "Serial (f64)", 1, serial)
	fmt.Fprintf(w, "  %-14s %5d %8.1f\n", "Go (f32)", 4, goF32)
	fmt.Fprintf(w, "  %-14s %5d %8.1f\n", "AVX2 (f32)", 8, avx2)
	fmt.Fprintf(w, "  (sink %g)\n", sink/1e18+float64(sink32)/1e18)
	return nil
}

// --- Table 2 -----------------------------------------------------------

// Table2 reproduces the iSet coverage table: cumulative coverage of 1–4
// iSets per rule-set size (mean ± std over the profiles) plus the Stanford
// backbone row.
func (r *Runner) Table2() error {
	w := r.cfg.W
	fmt.Fprintln(w, "Table 2: iSet coverage (%) — cumulative over 1..4 iSets")
	fmt.Fprintf(w, "  %-10s %16s %16s %16s %16s\n", "rules", "1 iSet", "2 iSets", "3 iSets", "4 iSets")
	sizes := append(append([]int{}, r.cfg.SmallSizes...), r.cfg.Size)
	sizes = dedupInts(sizes)
	for _, size := range sizes {
		cov := make([][]float64, 4)
		for _, p := range r.profiles() {
			c := iset.CumulativeCoverage(r.ruleSet(p, size), 4)
			for k := 0; k < 4; k++ {
				cov[k] = append(cov[k], c[k]*100)
			}
		}
		fmt.Fprintf(w, "  %-10d", size)
		for k := 0; k < 4; k++ {
			m, s := MeanStd(cov[k])
			fmt.Fprintf(w, " %9.1f ± %4.1f", m, s)
		}
		fmt.Fprintln(w)
	}
	st := stanford.Generate(0, r.cfg.StanfordSize)
	c := iset.CumulativeCoverage(st, 4)
	fmt.Fprintf(w, "  %-10s", fmt.Sprintf("stanford/%d", r.cfg.StanfordSize))
	for k := 0; k < 4; k++ {
		fmt.Fprintf(w, " %9.1f       ", c[k]*100)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "  (paper 500K row: 84.2 / 98.8 / 99.4 / 99.7; Stanford: 57.8 / 91.6 / 96.5 / 98.2)")
	return nil
}

// --- Table 3 -----------------------------------------------------------

// Table3 blends a ClassBench rule-set with low-diversity Cartesian-product
// rules and reports single-iSet coverage and throughput speedup over
// TupleMerge (§5.3.3).
func (r *Runner) Table3() error {
	w := r.cfg.W
	fmt.Fprintln(w, "Table 3: low-diversity blends (paper: 70%→25%/1.07x, 50%→50%/1.14x, 30%→70%/1.60x)")
	fmt.Fprintf(w, "  %-22s %-12s %s\n", "% low diversity", "% coverage", "speedup (throughput)")
	base := r.ruleSet(classbench.Profiles()[0], r.cfg.Size)
	rng := rand.New(rand.NewSource(r.cfg.Seed))

	// Low-diversity pool: a Cartesian product of few values per field.
	pool := make([][]rules.Range, 5)
	for d := range pool {
		for v := 0; v < 8; v++ {
			pool[d] = append(pool[d], rules.ExactRange(uint32(1000+97*v)))
		}
	}
	for _, frac := range []float64{0.7, 0.5, 0.3} {
		rs := base.Clone()
		k := int(frac * float64(rs.Len()))
		for _, pos := range rng.Perm(rs.Len())[:k] {
			for d := 0; d < 5; d++ {
				rs.Rules[pos].Fields[d] = pool[d][rng.Intn(len(pool[d]))]
			}
		}
		part := iset.Build(rs, iset.Options{MaxISets: 1})
		cov := part.Coverage()

		tm, err := BuildBaseline(TM, rs)
		if err != nil {
			return err
		}
		nm, err := BuildNM(TM, rs)
		if err != nil {
			return err
		}
		tr := trace.Uniform(rng, rs, r.cfg.TraceLen)
		sp := Throughput1(nm, tr.Packets) / Throughput1(tm, tr.Packets)
		fmt.Fprintf(w, "  %-22.0f %-12.1f %.2fx\n", frac*100, cov*100, sp)
	}
	return nil
}

// --- Figure 7 ----------------------------------------------------------

// Fig7 plots the sustained-update model: throughput over time for a given
// update rate under periodic retraining (fast vs slow training) against the
// zero-training-time upper bound (§3.9).
func (r *Runner) Fig7() error {
	w := r.cfg.W
	p := classbench.Profiles()[0]
	rs := r.ruleSet(p, r.cfg.Size)
	key := fmt.Sprintf("%s/%d", p.Name, r.cfg.Size)
	tr := r.uniformTrace(key, rs)
	tm, err := r.baseline(TM, key, rs)
	if err != nil {
		return err
	}
	nm, err := r.engine(TM, key, rs)
	if err != nil {
		return err
	}
	tAcc := Throughput1(nm, tr.Packets)
	tRem := Throughput1(tm, tr.Packets)

	fmt.Fprintln(w, "Figure 7: throughput over time under updates (τ = retrain period)")
	fmt.Fprintf(w, "  accelerated %.0f pps, remainder-only %.0f pps, update rate = 1%% of rules per τ\n", tAcc, tRem)
	fmt.Fprintf(w, "  %-8s %-14s %-14s %-14s\n", "t/τ", "upper bound", "fast train", "long train")
	rate := 0.01 * float64(rs.Len()) // updates per τ
	for _, t := range []float64{0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4} {
		// Updates accumulated since the last retrain finished.
		upper := core.SustainedUpdateModel(float64(rs.Len()), rate*frac(t, 1), tAcc, tRem)
		fast := core.SustainedUpdateModel(float64(rs.Len()), rate*frac(t+0.25, 1.25), tAcc, tRem)
		long := core.SustainedUpdateModel(float64(rs.Len()), rate*frac(t+1, 2), tAcc, tRem)
		fmt.Fprintf(w, "  %-8.2f %-14.0f %-14.0f %-14.0f\n", t, upper, fast, long)
	}
	return nil
}

// frac returns t modulo period (sawtooth time since last retrain).
func frac(t, period float64) float64 {
	for t >= period {
		t -= period
	}
	return t
}

// --- Figures 8, 9, 17 --------------------------------------------------

// Fig8 reproduces the headline two-core comparison: latency and throughput
// speedups of NuevoMatch over each baseline per profile. "Two cores" means
// two readers, each classifying half of the trace; a single packet's path
// is the one-core path, so latency is Latency1.
func (r *Runner) Fig8() error {
	return r.speedupFigure("Figure 8 (two cores: two readers over halves of the trace)", []int{r.cfg.Size}, Baselines(), true)
}

// Fig9 is the single-core early-termination variant.
func (r *Runner) Fig9() error {
	return r.speedupFigure("Figure 9 (single core, early termination)", []int{r.cfg.Size}, Baselines(), false)
}

// Fig17 is the small-rule-set detail (1K and 10K) against cs and tm.
func (r *Runner) Fig17() error {
	return r.speedupFigure("Figure 17 (small rule-sets, two cores)", r.cfg.SmallSizes, []string{CS, TM}, true)
}

func (r *Runner) speedupFigure(title string, sizes []int, baselines []string, twoCore bool) error {
	w := r.cfg.W
	fmt.Fprintln(w, title+": NuevoMatch speedup per rule-set")
	for _, size := range sizes {
		fmt.Fprintf(w, "  --- %d rules ---\n", size)
		fmt.Fprintf(w, "  %-8s", "set")
		for _, b := range baselines {
			fmt.Fprintf(w, "  %8s-thr %8s-lat", b, b)
		}
		fmt.Fprintln(w)
		spThr := make(map[string][]float64)
		spLat := make(map[string][]float64)
		for _, p := range r.profiles() {
			rs := r.ruleSet(p, size)
			key := fmt.Sprintf("%s/%d", p.Name, size)
			tr := r.uniformTrace(key, rs)
			fmt.Fprintf(w, "  %-8s", p.Name)
			for _, b := range baselines {
				base, err := r.baseline(b, key, rs)
				if err != nil {
					return err
				}
				nm, err := r.engine(b, key, rs)
				if err != nil {
					return err
				}
				var thr, lat float64
				if twoCore {
					thr = Throughput2(nm, tr.Packets) / Throughput2(base, tr.Packets)
					lat = float64(Latency1(base, tr.Packets)) / float64(Latency1(nm, tr.Packets))
				} else {
					thr = Throughput1(nm, tr.Packets) / Throughput1(base, tr.Packets)
					lat = thr // identical on one core (§5.2)
				}
				spThr[b] = append(spThr[b], thr)
				spLat[b] = append(spLat[b], lat)
				fmt.Fprintf(w, "  %11.2fx %11.2fx", thr, lat)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "  %-8s", "GM")
		for _, b := range baselines {
			fmt.Fprintf(w, "  %11.2fx %11.2fx", GeoMean(spThr[b]), GeoMean(spLat[b]))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// --- Figure 10 ---------------------------------------------------------

// Fig10 runs the Stanford backbone comparison: nm-with-tm vs tm on the four
// forwarding rule-sets (two-core configuration).
func (r *Runner) Fig10() error {
	w := r.cfg.W
	fmt.Fprintln(w, "Figure 10: Stanford backbone (paper: ~3.5x throughput, ~7.5x latency)")
	fmt.Fprintf(w, "  %-6s %-14s %-16s %-10s %-12s %s\n", "set", "tm (pps)", "nm w/ tm (pps)", "thr-spd", "lat-spd", "coverage")
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	for si := 0; si < 4; si++ {
		rs := stanford.Generate(si, r.cfg.StanfordSize)
		tr := trace.Uniform(rng, rs, r.cfg.TraceLen)
		tm, err := BuildBaseline(TM, rs)
		if err != nil {
			return err
		}
		nm, err := BuildNM(TM, rs)
		if err != nil {
			return err
		}
		tb := Throughput2(tm, tr.Packets)
		tn := Throughput2(nm, tr.Packets)
		lb := Latency1(tm, tr.Packets)
		ln := Latency1(nm, tr.Packets)
		fmt.Fprintf(w, "  %-6d %-14.0f %-16.0f %-10.2f %-12.2f %.1f%%\n",
			si+1, tb, tn, tn/tb, float64(lb)/float64(ln), nm.Stats().Coverage*100)
	}
	return nil
}

// --- Figure 11 ---------------------------------------------------------

// Fig11 sweeps the rule count for one application (ACL1) and reports tm vs
// nm-with-tm throughput with memory annotations (remainder : total).
func (r *Runner) Fig11() error {
	w := r.cfg.W
	fmt.Fprintln(w, "Figure 11: throughput vs number of rules (ACL1 family), tm vs nm w/ tm")
	fmt.Fprintf(w, "  %-10s %-14s %-14s %-10s %-12s %-18s\n", "rules", "tm (pps)", "nm (pps)", "speedup", "coverage", "KB (rem:total:tm)")
	p := classbench.Profiles()[0]
	sizes := dedupInts(append(append([]int{}, r.cfg.SmallSizes...), r.cfg.Size))
	for _, size := range sizes {
		rs := r.ruleSet(p, size)
		key := fmt.Sprintf("%s/%d", p.Name, size)
		tr := r.uniformTrace(key, rs)
		tm, err := r.baseline(TM, key, rs)
		if err != nil {
			return err
		}
		nm, err := r.engine(TM, key, rs)
		if err != nil {
			return err
		}
		tb := Throughput1(tm, tr.Packets)
		tn := Throughput1(nm, tr.Packets)
		st := nm.Stats()
		fmt.Fprintf(w, "  %-10d %-14.0f %-14.0f %-10.2f %-12.1f %.1f:%.1f:%.1f\n",
			size, tb, tn, tn/tb, st.Coverage*100,
			float64(nm.RemainderBytes())/1024,
			float64(nm.MemoryFootprint())/1024,
			float64(tm.MemoryFootprint())/1024)
	}
	return nil
}

// --- Figure 12 ---------------------------------------------------------

// Fig12 evaluates skewed traffic: Zipf presets, a CAIDA-like trace, and
// CAIDA* under cache pressure; speedups of nm over cs and tm (single core).
func (r *Runner) Fig12() error {
	w := r.cfg.W
	fmt.Fprintln(w, "Figure 12: skewed traffic, nm speedup over cs and tm (single core)")
	fmt.Fprintf(w, "  %-10s %-14s %-14s\n", "trace", "nm w/ cs", "nm w/ tm")
	p := classbench.Profiles()[0]
	rs := r.ruleSet(p, r.cfg.Size)
	key := fmt.Sprintf("%s/%d", p.Name, r.cfg.Size)
	rng := rand.New(rand.NewSource(r.cfg.Seed))

	cs, err := r.baseline(CS, key, rs)
	if err != nil {
		return err
	}
	tm, err := r.baseline(TM, key, rs)
	if err != nil {
		return err
	}
	nmCS, err := r.engine(CS, key, rs)
	if err != nil {
		return err
	}
	nmTM, err := r.engine(TM, key, rs)
	if err != nil {
		return err
	}

	run := func(name string, pkts []rules.Packet, pressure bool) {
		var pr *CachePressure
		if pressure {
			pr = StartCachePressure(0, 0)
			defer pr.Stop()
		}
		spCS := Throughput1(nmCS, pkts) / Throughput1(cs, pkts)
		spTM := Throughput1(nmTM, pkts) / Throughput1(tm, pkts)
		fmt.Fprintf(w, "  %-10s %12.2fx %12.2fx\n", name, spCS, spTM)
	}
	for _, preset := range trace.SkewPresets() {
		tr, err := trace.Zipf(rng, rs, r.cfg.TraceLen, preset)
		if err != nil {
			return err
		}
		run(preset.Name, tr.Packets, false)
	}
	ctr, err := trace.CAIDALike(rng, rs, r.cfg.TraceLen, trace.CAIDAOptions{})
	if err != nil {
		return err
	}
	run("caida", ctr.Packets, false)
	run("caida*", ctr.Packets, true)
	return nil
}

// --- Figure 13 ---------------------------------------------------------

// Fig13 compares index memory: each baseline alone vs the NuevoMatch
// remainder plus iSet models (geometric mean over profiles).
func (r *Runner) Fig13() error {
	w := r.cfg.W
	fmt.Fprintln(w, "Figure 13: index memory (bytes, GM over profiles)")
	fmt.Fprintf(w, "  %-10s", "rules")
	for _, b := range Baselines() {
		fmt.Fprintf(w, " %12s %12s %12s", b, "nm-rem("+b+")", "nm-isets")
	}
	fmt.Fprintln(w)
	sizes := dedupInts(append(append([]int{}, r.cfg.SmallSizes...), r.cfg.Size))
	for _, size := range sizes {
		fmt.Fprintf(w, "  %-10d", size)
		for _, b := range Baselines() {
			var alone, rem, isets []float64
			for _, p := range r.profiles() {
				rs := r.ruleSet(p, size)
				key := fmt.Sprintf("%s/%d", p.Name, size)
				base, err := r.baseline(b, key, rs)
				if err != nil {
					return err
				}
				nm, err := r.engine(b, key, rs)
				if err != nil {
					return err
				}
				alone = append(alone, float64(base.MemoryFootprint()))
				rem = append(rem, float64(nm.RemainderBytes()))
				isets = append(isets, float64(nm.RQRMIBytes()))
			}
			fmt.Fprintf(w, " %12.0f %12.0f %12.0f", GeoMean(alone), GeoMean(rem), GeoMean(isets))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// --- Figure 14 ---------------------------------------------------------

// Fig14 varies the number of iSets (0 = cs alone) and reports coverage plus
// the per-packet runtime breakdown (remainder, secondary search,
// validation, inference), averaged over the profiles.
func (r *Runner) Fig14() error {
	w := r.cfg.W
	fmt.Fprintln(w, "Figure 14: coverage and runtime breakdown vs number of iSets (cs remainder)")
	fmt.Fprintf(w, "  %-7s %-10s %-12s %-12s %-12s %-12s %-10s\n",
		"iSets", "coverage", "remainder", "search", "validate", "inference", "total")
	p := classbench.Profiles()[0]
	rs := r.ruleSet(p, r.cfg.Size)
	key := fmt.Sprintf("%s/%d", p.Name, r.cfg.Size)
	tr := r.uniformTrace(key, rs)

	for k := 0; k <= 6; k++ {
		var e *core.Engine
		var err error
		if k == 0 {
			e, err = core.Build(rs, core.Options{MaxISets: -1, MinCoverage: 1.1, Remainder: remainderMust(CS)})
		} else {
			e, err = core.Build(rs, core.Options{MaxISets: k, MinCoverage: 0.01, Remainder: remainderMust(CS)})
		}
		if err != nil {
			return err
		}
		prof, _ := e.ProfileTrace(tr.Packets)
		rem, search, validate, infer := prof.PerPacket()
		fmt.Fprintf(w, "  %-7d %-10.1f %-12s %-12s %-12s %-12s %-10s\n",
			e.NumISets(), e.Stats().Coverage*100, rem, search, validate, infer,
			rem+search+validate+infer)
	}
	return nil
}

func remainderMust(name string) rules.Builder {
	b, err := remainderBuilder(name)
	if err != nil {
		panic(err)
	}
	return b
}

// --- Figure 15 ---------------------------------------------------------

// Fig15 measures RQ-RMI training time as a function of the maximum search
// distance bound, per rule-set size. In the paper a looser bound lets
// Adam's retrain loop stop sooner. Here each submodel is fitted to its
// minimax error whatever the bound, which only seeds the search for that
// error, so the rows stay roughly flat: the figure shows what training
// costs at each size rather than a trade-off.
func (r *Runner) Fig15() error {
	w := r.cfg.W
	fmt.Fprintln(w, "Figure 15: training time vs max search distance bound")
	fmt.Fprintf(w, "  %-10s", "rules")
	bounds := []int{64, 128, 256, 512, 1024}
	for _, b := range bounds {
		fmt.Fprintf(w, " %10d", b)
	}
	fmt.Fprintln(w)
	p := classbench.Profiles()[0]
	sizes := dedupInts(append(append([]int{}, r.cfg.SmallSizes...), r.cfg.Size))
	for _, size := range sizes {
		rs := r.ruleSet(p, size)
		fmt.Fprintf(w, "  %-10d", size)
		for _, bound := range bounds {
			opt, err := NMOptions(TM, bound)
			if err != nil {
				return err
			}
			e, err := core.Build(rs, opt)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %10s", e.Stats().TrainingTime.Round(time.Millisecond))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// --- §5.3.5 ------------------------------------------------------------

// Fields measures validation cost as the number of fields grows from 1 to
// 40 (the paper reports ~25ns at 1 field to ~180ns at 40, near-linear).
func (r *Runner) Fields() error {
	w := r.cfg.W
	fmt.Fprintln(w, "§5.3.5: validation time vs number of fields")
	fmt.Fprintf(w, "  %-8s %s\n", "fields", "ns/validation")
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	for _, d := range []int{1, 2, 5, 10, 20, 40} {
		rule := rules.Rule{Fields: make([]rules.Range, d)}
		pkts := make([]rules.Packet, 256)
		for i := range pkts {
			pkts[i] = make(rules.Packet, d)
		}
		for f := 0; f < d; f++ {
			lo := rng.Uint32() >> 1
			rule.Fields[f] = rules.Range{Lo: lo, Hi: lo + 1<<20}
			for i := range pkts {
				pkts[i][f] = lo + rng.Uint32()%(1<<20)
			}
		}
		n := 0
		matched := 0
		start := time.Now()
		for time.Since(start) < MinMeasure {
			for _, p := range pkts {
				if rule.Matches(p) {
					matched++
				}
			}
			n += len(pkts)
		}
		fmt.Fprintf(w, "  %-8d %.1f\n", d, float64(time.Since(start).Nanoseconds())/float64(n))
		if matched == 0 {
			return fmt.Errorf("analysis: validation benchmark packets never matched")
		}
	}
	return nil
}

// --- §5.2.1 contention --------------------------------------------------

// Contention measures the L3-pressure sensitivity of cs vs nm-with-cs
// (paper: cs loses ~50%, nm ~30%).
func (r *Runner) Contention() error {
	w := r.cfg.W
	p := classbench.Profiles()[0]
	rs := r.ruleSet(p, r.cfg.Size)
	key := fmt.Sprintf("%s/%d", p.Name, r.cfg.Size)
	tr := r.uniformTrace(key, rs)
	cs, err := r.baseline(CS, key, rs)
	if err != nil {
		return err
	}
	nm, err := r.engine(CS, key, rs)
	if err != nil {
		return err
	}
	csFree := Throughput1(cs, tr.Packets)
	nmFree := Throughput1(nm, tr.Packets)
	pr := StartCachePressure(0, 0)
	csLoad := Throughput1(cs, tr.Packets)
	nmLoad := Throughput1(nm, tr.Packets)
	pr.Stop()
	fmt.Fprintln(w, "§5.2.1: cache contention (paper: cs −50%, nm −30%)")
	fmt.Fprintf(w, "  %-10s %-14s %-14s %s\n", "system", "free (pps)", "contended", "slowdown")
	fmt.Fprintf(w, "  %-10s %-14.0f %-14.0f %.1f%%\n", "cs", csFree, csLoad, 100*(1-csLoad/csFree))
	fmt.Fprintf(w, "  %-10s %-14.0f %-14.0f %.1f%%\n", "nm w/ cs", nmFree, nmLoad, 100*(1-nmLoad/nmFree))
	return nil
}

// --- §4 batched inference: the batch-vs-scalar gate -----------------------

// BatchResult is what the batch experiment measured: LookupBatch against
// per-packet Lookup on one engine and one trace.
type BatchResult struct {
	Profile string
	Rules   int
	// Verified packets went through both LookupBatch and Lookup before any
	// timing; Mismatches of them got different answers.
	Verified, Mismatches int
	// ScalarPPS and BatchPPS are the medians of each side's runs.
	ScalarPPS, BatchPPS float64
	// Ratios holds each pair's batch/scalar throughput ratio in run order.
	// Ratio is their median, the gated figure; RatioQ1 and RatioQ3 are
	// their quartiles.
	Ratios                  []float64
	Ratio, RatioQ1, RatioQ3 float64
}

// batchPairs is how many scalar/batch measurement pairs Batch takes. One
// pair cannot resolve the gate's bar: single ratios of identical code
// spread over 0.88–1.21x on a 2-vCPU box. The pairs alternate which side
// runs first, so a drift in machine speed during the run does not favour
// one side.
const batchPairs = 9

// Batch measures what batched, vectorized RQ-RMI inference (§4) buys end
// to end: LookupBatch over BatchSize chunks against per-packet Lookup, on
// the first profile at Size rules (NuevoMatch with the TupleMerge
// remainder, error threshold 64) over the uniform trace, in batchPairs
// alternating pairs. A conformance pass runs first, so a speedup is never
// reported for a batched path that computes something else. Batch errors
// on any mismatch and, when minRatio is positive, on a median ratio below
// it (benchrunner's -minbatch, the CI perf gate); Run passes 0.
func (r *Runner) Batch(minRatio float64) (BatchResult, error) {
	profs := r.profiles()
	if len(profs) == 0 {
		return BatchResult{}, fmt.Errorf("analysis: no known profile among %v", r.cfg.Profiles)
	}
	p := profs[0]
	rs := r.ruleSet(p, r.cfg.Size)
	key := fmt.Sprintf("%s/%d", p.Name, r.cfg.Size)
	tr := r.uniformTrace(key, rs)
	e, err := r.engine(TM, key, rs)
	if err != nil {
		return BatchResult{}, err
	}

	res := BatchResult{Profile: p.Name, Rules: rs.Len(), Verified: len(tr.Packets)}
	out := make([]int, len(tr.Packets))
	e.LookupBatch(tr.Packets, out)
	for i, pkt := range tr.Packets {
		if out[i] != e.Lookup(pkt) {
			res.Mismatches++
		}
	}
	if res.Mismatches > 0 {
		return res, fmt.Errorf("analysis: LookupBatch disagreed with Lookup on %d/%d packets", res.Mismatches, res.Verified)
	}

	w := r.cfg.W
	fmt.Fprintf(w, "Batch vs scalar lookup (§4 batched inference): %s, %d rules, %d packets\n", p.Name, res.Rules, res.Verified)
	fmt.Fprintf(w, "  machine      %s/%s, %d CPUs (GOMAXPROCS %d), simd %v, kernel %s\n",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu.Features(), rqrmi.KernelName())
	fmt.Fprintf(w, "  conformance  %d/%d packets identical\n", res.Verified-res.Mismatches, res.Verified)
	scalar := make([]float64, batchPairs)
	batch := make([]float64, batchPairs)
	for i := range batchPairs {
		if i%2 == 0 {
			scalar[i] = Throughput1(e, tr.Packets)
			batch[i] = ThroughputBatch(e, tr.Packets)
		} else {
			batch[i] = ThroughputBatch(e, tr.Packets)
			scalar[i] = Throughput1(e, tr.Packets)
		}
		res.Ratios = append(res.Ratios, batch[i]/scalar[i])
		fmt.Fprintf(w, "  pair %d       Lookup %12.0f pps  LookupBatch %12.0f pps (chunks of %d)  ratio %.2fx\n",
			i+1, scalar[i], batch[i], BatchSize, res.Ratios[i])
	}
	ratios := sortedCopy(res.Ratios)
	res.ScalarPPS = quantile(sortedCopy(scalar), 0.5)
	res.BatchPPS = quantile(sortedCopy(batch), 0.5)
	res.RatioQ1, res.Ratio, res.RatioQ3 = quantile(ratios, 0.25), quantile(ratios, 0.5), quantile(ratios, 0.75)
	fmt.Fprintf(w, "  ratio        median %.2fx, quartiles %.2fx-%.2fx over %d pairs\n", res.Ratio, res.RatioQ1, res.RatioQ3, batchPairs)
	if minRatio > 0 && res.Ratio < minRatio {
		return res, fmt.Errorf("analysis: median batch speedup %.2fx below the required %.2fx", res.Ratio, minRatio)
	}
	return res, nil
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile of sorted, interpolating linearly
// between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	x := q * float64(len(sorted)-1)
	i := int(x)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (x-float64(i))*(sorted[i+1]-sorted[i])
}

func dedupInts(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
