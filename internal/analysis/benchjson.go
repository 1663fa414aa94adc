package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/core"
	"nuevomatch/internal/cpu"
	"nuevomatch/internal/rqrmi"
	"nuevomatch/internal/rules"
	"nuevomatch/internal/trace"
)

// BenchArtifact is the machine-readable performance record benchrunner
// emits as BENCH_<name>.json: one standardized measurement of the engine's
// hot paths so successive PRs leave a comparable perf trajectory behind.
type BenchArtifact struct {
	Name      string `json:"name"`
	Profile   string `json:"profile"`
	Rules     int    `json:"rules"`
	TraceLen  int    `json:"trace_len"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	Timestamp string `json:"timestamp"`

	// Machine pins the hardware and runtime context of the run: a
	// BatchSpeedup measured on a single-core container and one from an
	// 8-core runner are different experiments, and the artifact must say
	// which one it records.
	Machine MachineInfo `json:"machine"`

	Engine struct {
		Coverage          float64 `json:"coverage"`
		NumISets          int     `json:"num_isets"`
		RemainderSize     int     `json:"remainder_size"`
		MaxSearchDistance int     `json:"max_search_distance"`
		TrainingSeconds   float64 `json:"training_seconds"`
		TotalBytes        int     `json:"total_bytes"`
		ISetBytes         int     `json:"iset_bytes"`
		RemainderBytes    int     `json:"remainder_bytes"`

		// RemainderBackend is the remainder classifier that serves
		// (BuildStats.RemainderBackend); under -remainder auto,
		// RemainderAutoSelected is true and RemainderScores carries the
		// per-candidate selection measurements.
		RemainderBackend      string                `json:"remainder_backend"`
		RemainderAutoSelected bool                  `json:"remainder_auto_selected,omitempty"`
		RemainderScores       []core.RemainderScore `json:"remainder_scores,omitempty"`
	} `json:"engine"`

	// Lookup is the per-packet scalar path; LookupBatch the batched path;
	// LookupBatchParallel the two-worker split of §5.1.
	Lookup              BenchPath `json:"lookup"`
	LookupBatch         BenchPath `json:"lookup_batch"`
	LookupBatchParallel BenchPath `json:"lookup_batch_parallel"`

	// BatchSpeedup is LookupBatch throughput over Lookup throughput — the
	// number the batched-inference refactor is accountable for.
	BatchSpeedup float64 `json:"batch_speedup"`

	// BatchVerifiedPackets/BatchMismatches record the conformance pass run
	// before any timing: the batched path (float32 SIMD kernel included) is
	// replayed over the whole trace against per-packet Lookup. A speedup is
	// only admissible evidence when BatchMismatches is zero.
	BatchVerifiedPackets int `json:"batch_verified_packets"`
	BatchMismatches      int `json:"batch_mismatches"`

	// Persistence records the table codec's amortization story: what Build
	// spent training versus what Save and a warm-start Load cost on the same
	// host, with the loaded table verified lookup-identical against the
	// linear reference.
	Persistence PersistenceReport `json:"persistence"`

	// Churn, when present, is the autopilot churn experiment: sustained
	// insert/delete/lookup workloads with drift-driven background retraining
	// (retrain counts, swap latency, concurrent-lookup availability).
	Churn *ChurnReport `json:"churn,omitempty"`

	// Cluster, when present, is the sharded serving layer measured over the
	// same profile: per-shard and merged throughput, replication overhead,
	// and the merged-vs-single-engine batch ratio (see docs/BENCHMARKS.md).
	Cluster *ClusterReport `json:"cluster,omitempty"`

	// Serving, when present, measures the network serving tier (nmserve's
	// coalescing ingress) against the same engine called directly: wire
	// overhead, batch fill under concurrent clients, and client-observed
	// end-to-end latency (see docs/SERVING.md).
	Serving *ServingReport `json:"serving,omitempty"`
}

// MachineInfo is the benchmark host fingerprint embedded in every artifact.
type MachineInfo struct {
	GoArch     string `json:"goarch"`
	GoOS       string `json:"goos"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// SIMDFeatures are the vector ISA extensions detected at startup
	// (internal/cpu); empty on non-amd64 or noasm builds.
	SIMDFeatures []string `json:"simd_features"`
	// Kernel is the RQ-RMI batched-inference kernel the build and CPU
	// selected ("avx2" or "go-f32").
	Kernel string `json:"kernel"`
}

// CurrentMachine captures the host fingerprint for artifacts.
func CurrentMachine() MachineInfo {
	return MachineInfo{
		GoArch:       runtime.GOARCH,
		GoOS:         runtime.GOOS,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		SIMDFeatures: cpu.Features(),
		Kernel:       rqrmi.KernelName(),
	}
}

// PersistenceReport measures the Save → Load round trip of the built
// engine. LoadSpeedup is BuildSeconds / LoadSeconds — the factor the
// persistence lifecycle amortizes away on every restart.
type PersistenceReport struct {
	BuildSeconds    float64 `json:"build_seconds"`
	SaveSeconds     float64 `json:"save_seconds"`
	LoadSeconds     float64 `json:"load_seconds"`
	TableBytes      int     `json:"table_bytes"`
	LoadSpeedup     float64 `json:"load_speedup"`
	VerifiedPackets int     `json:"verified_packets"`
	Mismatches      int     `json:"mismatches"`
}

// AttachChurn runs the churn experiment with opsPerProfile operations per
// profile and records it in the artifact. opsPerProfile <= 0 skips it.
func (a *BenchArtifact) AttachChurn(opsPerProfile int, seed int64) error {
	if opsPerProfile <= 0 {
		return nil
	}
	cfg := DefaultChurnConfig()
	cfg.Ops = opsPerProfile
	cfg.Seed = seed
	rep, err := RunChurn(cfg)
	if err != nil {
		return err
	}
	a.Churn = rep
	return nil
}

// BenchPath is the measurement of one lookup entry point. AllocsPerOp and
// BytesPerOp are heap allocations per call of the entry point (per packet
// for the scalar path, per batch for the batched paths), measured after
// warm-up — the artifact that enforces the zero-alloc hot-path claim across
// PRs.
type BenchPath struct {
	ThroughputPPS float64 `json:"throughput_pps"`
	P50Nanos      float64 `json:"p50_ns"`
	P99Nanos      float64 `json:"p99_ns"`
	BatchSize     int     `json:"batch_size,omitempty"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	BytesPerOp    float64 `json:"bytes_per_op"`
}

// RunBenchArtifact builds the engine (paper options; the remainder backend
// is chosen by name — "" or "tm"/"tuplemerge" for the default, any
// registered name such as "rvh", or "auto" for workload auto-selection)
// over a ClassBench profile and measures the three lookup paths.
func RunBenchArtifact(profileName string, size, traceLen int, seed int64, remainder string) (*BenchArtifact, error) {
	prof, err := classbench.ProfileByName(profileName)
	if err != nil {
		return nil, err
	}
	rs := classbench.Generate(prof, size)
	rng := rand.New(rand.NewSource(seed))
	tr := trace.Uniform(rng, rs, traceLen)

	opt, err := NMOptions(TM, 64)
	if err != nil {
		return nil, err
	}
	switch remainder {
	case "", TM, "tuplemerge":
		// NMOptions default: TupleMerge.
	default:
		opt.RemainderName = remainder
	}
	buildStart := time.Now()
	e, err := core.Build(rs, opt)
	if err != nil {
		return nil, err
	}
	buildTime := time.Since(buildStart)

	a := &BenchArtifact{
		Name:      fmt.Sprintf("%s_%d", profileName, size),
		Profile:   profileName,
		Rules:     rs.Len(),
		TraceLen:  len(tr.Packets),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Machine:   CurrentMachine(),
	}
	st := e.Stats()
	a.Engine.Coverage = st.Coverage
	a.Engine.NumISets = e.NumISets()
	a.Engine.RemainderSize = st.RemainderSize
	a.Engine.MaxSearchDistance = st.MaxSearchDistance
	a.Engine.TrainingSeconds = st.TrainingTime.Seconds()
	a.Engine.TotalBytes = e.MemoryFootprint()
	a.Engine.ISetBytes = e.RQRMIBytes()
	a.Engine.RemainderBytes = e.RemainderBytes()
	a.Engine.RemainderBackend = st.RemainderBackend
	a.Engine.RemainderAutoSelected = st.RemainderAutoSelected
	a.Engine.RemainderScores = st.RemainderScores

	per, err := measurePersistence(e, buildTime, rs, tr.Packets)
	if err != nil {
		return nil, fmt.Errorf("persistence: %w", err)
	}
	a.Persistence = per

	// Conformance before timing: the batched path must agree with the
	// scalar path packet-for-packet, or the speedup below measures a
	// different function.
	bout := make([]int, len(tr.Packets))
	e.LookupBatch(tr.Packets, bout)
	for i, p := range tr.Packets {
		if bout[i] != e.Lookup(p) {
			a.BatchMismatches++
		}
	}
	a.BatchVerifiedPackets = len(tr.Packets)

	a.Lookup = measureScalar(e, tr.Packets)
	a.LookupBatch = measureBatch(tr.Packets, BatchSize, func(pkts []rules.Packet, out []int) {
		e.LookupBatch(pkts, out)
	})
	a.LookupBatchParallel = measureBatch(tr.Packets, BatchSize, func(pkts []rules.Packet, out []int) {
		e.LookupBatchParallel(pkts, out)
	})
	if a.Lookup.ThroughputPPS > 0 {
		a.BatchSpeedup = a.LookupBatch.ThroughputPPS / a.Lookup.ThroughputPPS
	}
	return a, nil
}

// measurePersistence runs the Save → Load round trip on the freshly built
// engine and verifies the loaded engine against the linear reference on the
// whole trace. Load is averaged over a few runs (it is milliseconds against
// a build of seconds, so a single sample would be noise-dominated).
func measurePersistence(e *core.Engine, buildTime time.Duration, rs *rules.RuleSet, pkts []rules.Packet) (PersistenceReport, error) {
	var rep PersistenceReport
	rep.BuildSeconds = buildTime.Seconds()

	var buf bytes.Buffer
	saveStart := time.Now()
	n, err := e.WriteTo(&buf)
	if err != nil {
		return rep, err
	}
	rep.SaveSeconds = time.Since(saveStart).Seconds()
	rep.TableBytes = int(n)

	const loadRuns = 5
	var loaded *core.Engine
	loadStart := time.Now()
	for i := 0; i < loadRuns; i++ {
		if loaded != nil {
			loaded.Close()
		}
		loaded, err = core.ReadEngine(bytes.NewReader(buf.Bytes()), nil)
		if err != nil {
			return rep, err
		}
	}
	rep.LoadSeconds = time.Since(loadStart).Seconds() / loadRuns
	defer loaded.Close()
	if rep.LoadSeconds > 0 {
		rep.LoadSpeedup = rep.BuildSeconds / rep.LoadSeconds
	}

	for _, p := range pkts {
		if loaded.Lookup(p) != rs.MatchID(p) {
			rep.Mismatches++
		}
	}
	rep.VerifiedPackets = len(pkts)
	return rep, nil
}

// WriteBenchArtifact writes BENCH_<name>.json into dir and returns the path.
func WriteBenchArtifact(dir string, a *BenchArtifact) (string, error) {
	path := filepath.Join(dir, "BENCH_"+a.Name+".json")
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// measureScalar measures per-packet Lookup: aggregate throughput over
// MinMeasure plus p50/p99 of per-packet latency samples.
func measureScalar(c rules.Classifier, pkts []rules.Packet) BenchPath {
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
	out := BenchPath{ThroughputPPS: float64(done) / time.Since(start).Seconds()}

	samples := make([]float64, 0, len(pkts))
	for _, p := range pkts {
		t0 := time.Now()
		c.Lookup(p)
		samples = append(samples, float64(time.Since(t0).Nanoseconds()))
	}
	out.P50Nanos, out.P99Nanos = percentiles(samples)
	out.AllocsPerOp, out.BytesPerOp = allocsPerOp(len(pkts), func() {
		for _, p := range pkts {
			c.Lookup(p)
		}
	})
	return out
}

// allocsPerOp reports heap allocations and bytes per operation of run,
// which performs ops operations. The caller must have warmed the measured
// path up first so one-time lazy initialization is excluded.
func allocsPerOp(ops int, run func()) (allocs, bytes float64) {
	if ops <= 0 {
		return 0, 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(ops),
		float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops)
}

// measureBatch measures a batched entry point; latency percentiles are over
// per-batch wall time divided by the batch size (a packet's latency in a
// batched design is the batch's, §5.1).
func measureBatch(pkts []rules.Packet, batch int, fn func([]rules.Packet, []int)) BenchPath {
	if len(pkts) < batch {
		batch = len(pkts)
	}
	res := make([]int, batch)
	for off := 0; off+batch <= len(pkts) && off < 8*batch; off += batch { // warmup
		fn(pkts[off:off+batch], res)
	}
	var done int
	start := time.Now()
	for time.Since(start) < MinMeasure {
		for off := 0; off+batch <= len(pkts); off += batch {
			fn(pkts[off:off+batch], res)
		}
		done += len(pkts) / batch * batch
	}
	out := BenchPath{
		ThroughputPPS: float64(done) / time.Since(start).Seconds(),
		BatchSize:     batch,
	}

	samples := make([]float64, 0, len(pkts)/batch+1)
	for off := 0; off+batch <= len(pkts); off += batch {
		t0 := time.Now()
		fn(pkts[off:off+batch], res)
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	out.P50Nanos, out.P99Nanos = percentiles(samples)
	out.AllocsPerOp, out.BytesPerOp = allocsPerOp(len(pkts)/batch, func() {
		for off := 0; off+batch <= len(pkts); off += batch {
			fn(pkts[off:off+batch], res)
		}
	})
	return out
}

// percentiles returns the p50 and p99 of the samples.
func percentiles(xs []float64) (p50, p99 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	at := func(q float64) float64 {
		i := int(q * float64(len(xs)-1))
		return xs[i]
	}
	return at(0.50), at(0.99)
}
