package nuevomatch_test

// Benchmarks regenerating the measured quantity behind every table and
// figure of the paper's evaluation (§5). Each benchmark name carries the
// experiment id of the table or figure it measures; docs/BENCHMARKS.md
// ("benchrunner: the paper's experiments and the batch gate") lists the
// ids. The pretty-printed versions of the full tables, with the paper's
// figures in their headers, come from `go run ./cmd/benchrunner`.
//
// Scale knobs (defaults keep `go test -bench=.` minutes-scale):
//
//	NM_BENCH_SIZE     rule-set size for the classifier benches (default 5000)
//	NM_BENCH_PROFILE  ClassBench profile (default acl1)

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"nuevomatch"
	"nuevomatch/internal/analysis"
	"nuevomatch/internal/classbench"
	"nuevomatch/internal/core"
	"nuevomatch/internal/rqrmi"
	"nuevomatch/internal/rules"
	"nuevomatch/internal/stanford"
	"nuevomatch/internal/trace"
)

func benchSize() int {
	if s := os.Getenv("NM_BENCH_SIZE"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 5000
}

func benchProfile() classbench.Profile {
	name := os.Getenv("NM_BENCH_PROFILE")
	if name == "" {
		name = "acl1"
	}
	p, err := classbench.ProfileByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// fixture carries a built rule-set, trace, baselines and engines shared by
// every benchmark; built once.
type fixture struct {
	rs    *rules.RuleSet
	pkts  []rules.Packet
	base  map[string]rules.Classifier
	nm    map[string]*core.Engine
	stRS  *rules.RuleSet
	stTM  rules.Classifier
	stNM  *core.Engine
	kern  *rqrmi.Kernel
	model *rqrmi.Model
	// entries are model's sorted entries, for the non-learned baseline.
	entries []rqrmi.Entry
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func getFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		size := benchSize()
		rs := classbench.Generate(benchProfile(), size)
		rng := rand.New(rand.NewSource(1))
		tr := trace.Uniform(rng, rs, 20000)
		f := &fixture{
			rs:   rs,
			pkts: tr.Packets,
			base: map[string]rules.Classifier{},
			nm:   map[string]*core.Engine{},
		}
		for _, name := range analysis.Baselines() {
			c, err := analysis.BuildBaseline(name, rs)
			if err != nil {
				panic(err)
			}
			f.base[name] = c
			e, err := analysis.BuildNM(name, rs)
			if err != nil {
				panic(err)
			}
			f.nm[name] = e
		}

		f.stRS = stanford.Generate(0, size)
		stTM, err := analysis.BuildBaseline(analysis.TM, f.stRS)
		if err != nil {
			panic(err)
		}
		f.stTM = stTM
		stNM, err := analysis.BuildNM(analysis.TM, f.stRS)
		if err != nil {
			panic(err)
		}
		f.stNM = stNM

		f.kern = rqrmi.NewKernel(8, 7)
		// A standalone RQ-RMI over the largest iSet's field for the model
		// microbenches.
		entries := make([]rqrmi.Entry, 0, 4096)
		lo := uint32(0)
		for i := 0; i < 4096; i++ {
			hi := lo + uint32(rng.Intn(1<<18))
			entries = append(entries, rqrmi.Entry{Range: rules.Range{Lo: lo, Hi: hi}, Value: i})
			lo = hi + 2 + uint32(rng.Intn(1000))
		}
		model, _, err := rqrmi.Train(entries, rqrmi.DefaultConfig(len(entries)))
		if err != nil {
			panic(err)
		}
		f.model = model
		f.entries = entries
		fix = f
	})
	return fix
}

// --- Table 1: submodel inference vs batch width ------------------------

func BenchmarkTable1SubmodelInference(b *testing.B) {
	k := rqrmi.NewKernel(8, 7)
	rng := rand.New(rand.NewSource(2))
	keys := make([]uint32, 4096)
	for i := range keys {
		keys[i] = rng.Uint32()
	}
	var sink float64
	b.Run("serial1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += k.Eval1(keys[i&4095])
		}
	})
	var sink32 float32
	b.Run("batch8f32", func(b *testing.B) {
		var in [8]uint32
		var out [8]float32
		for i := 0; i < b.N; i += 8 {
			j := i & 4088
			copy(in[:], keys[j:j+8])
			k.Eval8F32(&in, &out, false)
			sink32 += out[0]
		}
	})
	if rqrmi.HasAsmKernel() {
		b.Run("batch8avx2", func(b *testing.B) {
			var in [8]uint32
			var out [8]float32
			for i := 0; i < b.N; i += 8 {
				j := i & 4088
				copy(in[:], keys[j:j+8])
				k.Eval8F32(&in, &out, true)
				sink32 += out[0]
			}
		})
	}
	if sink == 42.420001 || sink32 == 42.42 {
		b.Log("sink", sink, sink32)
	}
}

// --- RQ-RMI model microbenches ------------------------------------------

func BenchmarkRQRMILookup(b *testing.B) {
	f := getFixture(b)
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint32, 4096)
	for i := range keys {
		keys[i] = rng.Uint32()
	}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if _, ok := f.model.Lookup(keys[i&4095]); ok {
			hits++
		}
	}
	b.ReportMetric(float64(f.model.MaxError()), "max-err")
	_ = hits
}

// --- Figures 8/9: lookup speed vs baselines -----------------------------

func benchLookup(b *testing.B, c rules.Classifier, pkts []rules.Packet) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(pkts[i%len(pkts)])
	}
}

func BenchmarkFig9SingleCore(b *testing.B) {
	f := getFixture(b)
	for _, name := range analysis.Baselines() {
		b.Run(name, func(b *testing.B) { benchLookup(b, f.base[name], f.pkts) })
		b.Run("nm_w_"+name, func(b *testing.B) { benchLookup(b, f.nm[name], f.pkts) })
	}
}

// --- Batched hot path: LookupBatch vs per-packet Lookup -----------------

func BenchmarkLookupBatch(b *testing.B) {
	f := getFixture(b)
	e := f.nm[analysis.TM]
	b.Run("scalar", func(b *testing.B) { benchLookup(b, e, f.pkts) })
	b.Run("batch", func(b *testing.B) {
		out := make([]int, analysis.BatchSize)
		b.ResetTimer()
		for i := 0; i < b.N; i += analysis.BatchSize {
			off := i % (len(f.pkts) - analysis.BatchSize)
			e.LookupBatch(f.pkts[off:off+analysis.BatchSize], out)
		}
	})
}

// benchBatchReaders runs LookupBatch from GOMAXPROCS readers at once over
// the one engine (run with -cpu 2 for the paper's two cores). One op is one
// BatchSize batch; ns/pkt is reported beside it.
func benchBatchReaders(b *testing.B, e *core.Engine, pkts []rules.Packet) {
	b.Helper()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		out := make([]int, analysis.BatchSize)
		off := 0
		for pb.Next() {
			if off+analysis.BatchSize > len(pkts) {
				off = 0
			}
			e.LookupBatch(pkts[off:off+analysis.BatchSize], out)
			off += analysis.BatchSize
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*analysis.BatchSize), "ns/pkt")
}

func BenchmarkFig8TwoCore(b *testing.B) {
	f := getFixture(b)
	for _, name := range analysis.Baselines() {
		e := f.nm[name]
		b.Run("nm_w_"+name+"_batch", func(b *testing.B) { benchBatchReaders(b, e, f.pkts) })
	}
}

// --- Figure 10: Stanford backbone ---------------------------------------

func BenchmarkFig10Stanford(b *testing.B) {
	f := getFixture(b)
	rng := rand.New(rand.NewSource(4))
	tr := trace.Uniform(rng, f.stRS, 20000)
	b.Run("tm", func(b *testing.B) { benchLookup(b, f.stTM, tr.Packets) })
	b.Run("nm_w_tm", func(b *testing.B) { benchLookup(b, f.stNM, tr.Packets) })
}

// --- Figure 11: scaling (one extra size beyond the fixture) -------------

func BenchmarkFig11Scaling(b *testing.B) {
	for _, size := range []int{1000, benchSize()} {
		rs := classbench.Generate(benchProfile(), size)
		rng := rand.New(rand.NewSource(5))
		tr := trace.Uniform(rng, rs, 10000)
		tm, err := analysis.BuildBaseline(analysis.TM, rs)
		if err != nil {
			b.Fatal(err)
		}
		nm, err := analysis.BuildNM(analysis.TM, rs)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("tm_%d", size), func(b *testing.B) {
			benchLookup(b, tm, tr.Packets)
			b.ReportMetric(float64(tm.MemoryFootprint()), "index-bytes")
		})
		b.Run(fmt.Sprintf("nm_%d", size), func(b *testing.B) {
			benchLookup(b, nm, tr.Packets)
			b.ReportMetric(float64(nm.MemoryFootprint()), "index-bytes")
			b.ReportMetric(nm.Stats().Coverage*100, "coverage-%")
		})
	}
}

// --- Figure 12: skewed traffic ------------------------------------------

func BenchmarkFig12Skew(b *testing.B) {
	f := getFixture(b)
	rng := rand.New(rand.NewSource(6))
	for _, preset := range trace.SkewPresets() {
		tr, err := trace.Zipf(rng, f.rs, 20000, preset)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(preset.Name+"/tm", func(b *testing.B) { benchLookup(b, f.base[analysis.TM], tr.Packets) })
		b.Run(preset.Name+"/nm_w_tm", func(b *testing.B) { benchLookup(b, f.nm[analysis.TM], tr.Packets) })
	}
	ctr, err := trace.CAIDALike(rng, f.rs, 20000, trace.CAIDAOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("caida/tm", func(b *testing.B) { benchLookup(b, f.base[analysis.TM], ctr.Packets) })
	b.Run("caida/nm_w_tm", func(b *testing.B) { benchLookup(b, f.nm[analysis.TM], ctr.Packets) })
}

// --- Figure 13: memory footprint ----------------------------------------

func BenchmarkFig13Memory(b *testing.B) {
	f := getFixture(b)
	for _, name := range analysis.Baselines() {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = f.base[name].MemoryFootprint()
			}
			b.ReportMetric(float64(f.base[name].MemoryFootprint()), "alone-bytes")
			b.ReportMetric(float64(f.nm[name].RemainderBytes()), "nm-remainder-bytes")
			b.ReportMetric(float64(f.nm[name].RQRMIBytes()), "nm-isets-bytes")
		})
	}
}

// --- Figure 14: pipeline breakdown --------------------------------------

func BenchmarkFig14Breakdown(b *testing.B) {
	f := getFixture(b)
	e := f.nm[analysis.CS]
	b.ResetTimer()
	var last core.Profile
	for i := 0; i < b.N; i++ {
		prof, _ := e.ProfileTrace(f.pkts[:1000])
		last = prof
	}
	rem, search, validate, infer := last.PerPacket()
	b.ReportMetric(float64(rem.Nanoseconds()), "remainder-ns")
	b.ReportMetric(float64(search.Nanoseconds()), "search-ns")
	b.ReportMetric(float64(validate.Nanoseconds()), "validate-ns")
	b.ReportMetric(float64(infer.Nanoseconds()), "inference-ns")
}

// --- Figure 15: training time vs error bound ----------------------------

func BenchmarkFig15Training(b *testing.B) {
	rs := classbench.Generate(benchProfile(), 2000)
	for _, bound := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("bound%d", bound), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt, err := analysis.NMOptions(analysis.TM, bound)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.Build(rs, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §5.3.5: validation vs field count ----------------------------------

func BenchmarkValidationFields(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range []int{1, 5, 10, 40} {
		rule := rules.Rule{Fields: make([]rules.Range, d)}
		pkt := make(rules.Packet, d)
		for f := 0; f < d; f++ {
			lo := rng.Uint32() >> 1
			rule.Fields[f] = rules.Range{Lo: lo, Hi: lo + 1<<20}
			pkt[f] = lo + 1<<10
		}
		b.Run(fmt.Sprintf("fields%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !rule.Matches(pkt) {
					b.Fatal("must match")
				}
			}
		})
	}
}

// --- §3.9: update path ----------------------------------------------------

func BenchmarkUpdates(b *testing.B) {
	rs := classbench.Generate(benchProfile(), 2000)
	e, err := nuevomatch.Open(rs)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.Run("insert_delete", func(b *testing.B) {
		fields := make([]nuevomatch.Range, 5)
		for d := range fields {
			fields[d] = nuevomatch.FullRange()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := 1_000_000 + i
			if err := e.Insert(nuevomatch.Rule{ID: id, Priority: 1 << 20, Fields: fields}); err != nil {
				b.Fatal(err)
			}
			if err := e.Delete(id); err != nil {
				b.Fatal(err)
			}
		}
	})
}
