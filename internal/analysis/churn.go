package analysis

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/core"
	"nuevomatch/internal/rules"
	"nuevomatch/internal/trace"
)

// The churn experiment: a sustained interleaved insert/delete/lookup
// workload driven against an autopilot-supervised engine, measuring what the
// §3.9 online-update story looks like when retraining is autonomous — how
// often the drift policy trips, how long the hot swaps hold the write lock,
// and whether concurrent lookups ever stall (they must not: the swap is one
// atomic snapshot store behind the lock-free read path). Results are
// embedded in the benchjson perf artifact so the retrain trajectory is
// tracked across PRs alongside raw lookup throughput.

// ChurnConfig parameterizes RunChurn.
type ChurnConfig struct {
	// Profiles are the ClassBench profiles to churn; default acl1, fw1, ipc1.
	Profiles []string
	// Size is the built rule count per profile (default 2000).
	Size int
	// Ops is the number of interleaved operations per profile, ~60% lookups
	// and ~40% updates (default 20000).
	Ops int
	// Seed drives the workload mix.
	Seed int64
	// Policy is the autopilot trigger policy; the zero value uses
	// MaxUpdates = Size (one retrain per ~50% churn) with a 2ms poll.
	Policy core.AutopilotPolicy
	// Verify checks every driver lookup against the linear reference
	// (default on; the experiment doubles as a conformance run).
	Verify bool
}

// DefaultChurnConfig returns the standard artifact configuration.
func DefaultChurnConfig() ChurnConfig {
	return ChurnConfig{
		Profiles: []string{"acl1", "fw1", "ipc1"},
		Size:     2000,
		Ops:      20000,
		Seed:     1,
		Verify:   true,
	}
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	d := DefaultChurnConfig()
	if c.Profiles == nil {
		c.Profiles = d.Profiles
	}
	if c.Size == 0 {
		c.Size = d.Size
	}
	if c.Ops == 0 {
		c.Ops = d.Ops
	}
	// The policy struct carries a func field (AfterRetrain) and cannot be
	// compared wholesale; an all-zero trigger set means "unset".
	if c.Policy.MaxUpdates == 0 && c.Policy.MaxRemainderFraction == 0 &&
		c.Policy.MaxOverlayCompactions == 0 && c.Policy.MinLiveRules == 0 &&
		c.Policy.MinInterval == 0 && c.Policy.Interval == 0 && c.Policy.AfterRetrain == nil {
		// Trigger on update counts only: the coverage trigger's trip points
		// depend on each profile's achievable coverage, and the artifact
		// should count deterministic drift-driven retrains.
		c.Policy = core.AutopilotPolicy{
			MaxUpdates:            c.Size / 2,
			MaxRemainderFraction:  -1,
			MaxOverlayCompactions: -1,
			MinLiveRules:          1,
			Interval:              2 * time.Millisecond,
		}
	}
	return c
}

// LatencyStats summarizes one latency sample population in nanoseconds.
type LatencyStats struct {
	Samples int     `json:"samples"`
	P50     float64 `json:"p50_ns"`
	P99     float64 `json:"p99_ns"`
	Max     float64 `json:"max_ns"`
}

func latencyStats(samples []float64) LatencyStats {
	st := LatencyStats{Samples: len(samples)}
	if len(samples) == 0 {
		return st
	}
	sort.Float64s(samples)
	st.P50, st.P99 = percentiles(samples)
	st.Max = samples[len(samples)-1]
	return st
}

// ChurnProfileResult is one profile's churn run.
type ChurnProfileResult struct {
	Profile string `json:"profile"`
	Rules   int    `json:"rules"`
	Ops     int    `json:"ops"`
	Lookups int    `json:"lookups"`
	Inserts int    `json:"inserts"`
	Deletes int    `json:"deletes"`

	// Retrains is the number of automatic in-place retrains the autopilot
	// performed; Replayed the journaled updates absorbed across their swaps.
	Retrains int    `json:"retrains"`
	Replayed int    `json:"replayed_updates"`
	Failures int    `json:"retrain_failures"`
	Trigger  string `json:"last_trigger"`

	// TrainTotalNanos is total background training time; SwapMaxNanos the
	// longest any swap held the write lock (the update-side stall bound —
	// lookups are never blocked).
	TrainTotalNanos float64 `json:"train_total_ns"`
	SwapMaxNanos    float64 `json:"swap_max_ns"`

	// Probe reports the latency of a concurrent lookup goroutine sampled
	// across the whole run, retrains included — the availability statement:
	// Max staying in lookup-scale territory means no reader ever stalled on
	// a swap.
	Probe LatencyStats `json:"probe"`

	// Mismatches counts verified lookups that disagreed with the linear
	// reference. Anything but zero is a correctness bug.
	Mismatches int `json:"mismatches"`

	// RemainderFractionEnd is the drift left after the final state (the
	// autopilot keeps it below the policy's ceiling).
	RemainderFractionEnd float64 `json:"remainder_fraction_end"`
}

// ChurnReport aggregates the churn experiment.
type ChurnReport struct {
	Size          int                  `json:"size"`
	OpsPerProfile int                  `json:"ops_per_profile"`
	TotalOps      int                  `json:"total_ops"`
	TotalRetrains int                  `json:"total_retrains"`
	Mismatches    int                  `json:"mismatches"`
	Profiles      []ChurnProfileResult `json:"profiles"`
}

// RunChurn executes the churn experiment.
func RunChurn(cfg ChurnConfig) (*ChurnReport, error) {
	cfg = cfg.withDefaults()
	rep := &ChurnReport{Size: cfg.Size, OpsPerProfile: cfg.Ops}
	for pi, name := range cfg.Profiles {
		res, err := runChurnProfile(cfg, name, cfg.Seed+int64(pi))
		if err != nil {
			return nil, fmt.Errorf("churn %s: %w", name, err)
		}
		rep.Profiles = append(rep.Profiles, *res)
		rep.TotalOps += res.Ops
		rep.TotalRetrains += res.Retrains
		rep.Mismatches += res.Mismatches
	}
	return rep, nil
}

func runChurnProfile(cfg ChurnConfig, name string, seed int64) (*ChurnProfileResult, error) {
	prof, err := classbench.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	// Built rules take even priorities, the insert pool odd ones: every rule
	// ever live has a unique priority, so the linear reference is exact.
	poolSize := cfg.Ops/2 + 16
	all := classbench.Generate(prof, cfg.Size+poolSize)
	base := rules.NewRuleSet(all.NumFields)
	for i := 0; i < cfg.Size; i++ {
		r := all.Rules[i]
		r.Priority = int32(2 * (i + 1))
		base.Add(r)
	}
	pool := make([]rules.Rule, 0, poolSize)
	for i := cfg.Size; i < cfg.Size+poolSize; i++ {
		r := all.Rules[i]
		r.ID = 1_000_000 + i
		r.Priority = int32(2*(i-cfg.Size) + 1)
		pool = append(pool, r)
	}

	e, err := BuildNM(TM, base)
	if err != nil {
		return nil, err
	}
	mirror := base.Clone()

	ap := core.NewAutopilot(e, cfg.Policy)
	ap.Start()
	defer ap.Stop()

	// Concurrent availability prober: uniform trace lookups sampled across
	// the whole run, hot swaps included.
	rng := rand.New(rand.NewSource(seed))
	tr := trace.Uniform(rng, base, 4096)
	var stopProbe atomic.Bool
	var wg sync.WaitGroup
	var probeSamples []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Check-after-probe so at least one sample lands even when a
		// single-CPU scheduler never runs this goroutine until the churn
		// loop has already finished and raised stopProbe.
		for i := 0; ; i++ {
			p := tr.Packets[i%len(tr.Packets)]
			t0 := time.Now()
			e.Lookup(p)
			if i%4 == 0 && len(probeSamples) < 1<<20 {
				probeSamples = append(probeSamples, float64(time.Since(t0).Nanoseconds()))
			}
			if stopProbe.Load() {
				return
			}
		}
	}()

	res := &ChurnProfileResult{Profile: name, Rules: cfg.Size}
	for res.Ops < cfg.Ops {
		res.Ops++
		switch x := rng.Float64(); {
		case x < 0.60:
			res.Lookups++
			p := churnPacket(rng, mirror)
			got := e.Lookup(p)
			if cfg.Verify && got != mirror.MatchID(p) {
				res.Mismatches++
			}
		case x < 0.80 && len(pool) > 0:
			r := pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			if err := e.Insert(r); err != nil {
				return nil, err
			}
			mirror.Add(r)
			res.Inserts++
		default:
			if mirror.Len() <= 16 {
				continue
			}
			i := rng.Intn(mirror.Len())
			if err := e.Delete(mirror.Rules[i].ID); err != nil {
				return nil, err
			}
			mirror.Rules[i] = mirror.Rules[mirror.Len()-1]
			mirror.Rules = mirror.Rules[:mirror.Len()-1]
			res.Deletes++
		}
	}
	// The watcher is asynchronous; if the final drift tranche has not been
	// polled yet, force one check so short runs still report a retrain.
	if ap.Stats().Retrains == 0 {
		if _, err := ap.Check(); err != nil {
			return nil, err
		}
	}
	stopProbe.Store(true)
	wg.Wait()
	ap.Stop()

	st := ap.Stats()
	res.Retrains = st.Retrains
	res.Replayed = st.Replayed
	res.Failures = st.Failures
	res.Trigger = st.LastTrigger
	res.TrainTotalNanos = float64(st.TotalTrain.Nanoseconds())
	res.SwapMaxNanos = float64(st.MaxSwap.Nanoseconds())
	res.Probe = latencyStats(probeSamples)
	res.RemainderFractionEnd = e.Updates().RemainderFraction
	return res, nil
}

// churnPacket draws a probe biased toward matching a live rule.
func churnPacket(rng *rand.Rand, mirror *rules.RuleSet) rules.Packet {
	p := make(rules.Packet, mirror.NumFields)
	if mirror.Len() > 0 && rng.Intn(4) != 0 {
		classbench.FillMatchingPacket(rng, &mirror.Rules[rng.Intn(mirror.Len())], p)
		return p
	}
	for i := range p {
		p[i] = rng.Uint32()
	}
	return p
}
