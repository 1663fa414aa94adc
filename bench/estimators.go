package main

import (
	"math"
	"sort"
	"time"
)

// quietFloor is the estimator behind every timed end-to-end metric: the mean
// of the fastest tenth of the samples (durations; smaller is faster). On a
// shared box a contended stretch only ever adds time, so the fast tail is the
// part of the distribution that repeats between runs; averaging a tenth of the
// samples instead of taking the minimum keeps one lucky round from setting the
// number. It returns NaN for no samples.
func quietFloor(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := sortedCopy(samples)
	k := len(s) / 10
	if k < 1 {
		k = 1
	}
	return mean(s[:k])
}

// clockProbe times a short chain of dependent floating-point operations,
// about 19 µs of work whose duration depends on nothing but the core's clock.
// On the box this was written on the readings fall on a few discrete levels
// about 3.5 % apart (the processor's frequency steps) and hop between them
// within a millisecond, lower while the neighbours are busy; the floors of
// identical rounds at two adjacent levels differ by that same 3–5 %.
func clockProbe() float64 {
	t0 := time.Now()
	x := 1.0001
	for i := 0; i < 8000; i++ {
		x = x*1.0000001 + 0.0000001
		if x > 2 {
			x--
		}
	}
	probeSink = x
	return float64(time.Since(t0).Nanoseconds())
}

var probeSink float64

// refProbeNS is the probe reading every timed round is rescaled to: the most
// common reading on the box the bounds were calibrated on. On other hardware
// it shifts every timed metric by one constant factor, which comparisons on
// that hardware do not see.
const refProbeNS = 19100

// rounds holds one round kind's durations with the clock probes taken right
// before and right after each round.
type rounds struct {
	ns, before, after []float64
}

func (r *rounds) add(before, ns, after float64) {
	r.ns = append(r.ns, ns)
	r.before = append(r.before, before)
	r.after = append(r.after, after)
}

// atRefClock returns the durations of the rounds during which the clock held
// still (the two probes agree within 2 %), each rescaled from the clock it ran
// at to the reference clock. A round whose probes disagree changed frequency
// or was interrupted part-way and is left out.
func (r *rounds) atRefClock() []float64 {
	var kept []float64
	for i, ns := range r.ns {
		b, a := r.before[i], r.after[i]
		if math.Abs(b-a) < 0.02*math.Min(b, a) {
			kept = append(kept, ns*refProbeNS/((b+a)/2))
		}
	}
	return kept
}

// floor is the quiet floor of the rounds at the reference clock, so that runs
// are compared at one processor frequency whatever frequencies the box let
// them have. With fewer than 100 such rounds it falls back to the raw rounds.
func (r *rounds) floor() float64 {
	if kept := r.atRefClock(); len(kept) >= 100 {
		return quietFloor(kept)
	}
	return quietFloor(r.ns)
}

// sliceCeiling is quietFloor for counts per fixed time slice (larger is
// faster): the mean of the busiest tenth of the slices.
func sliceCeiling(counts []float64) float64 {
	if len(counts) == 0 {
		return math.NaN()
	}
	s := sortedCopy(counts)
	k := len(s) / 10
	if k < 1 {
		k = 1
	}
	return mean(s[len(s)-k:])
}

// percentile returns the q-quantile (0..1) of the samples by nearest rank.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := sortedCopy(samples)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// quartiles returns the first quartile, median and third quartile with the
// "exclusive" method of Python's statistics.quantiles(values, n=4), which is
// what the acceptance rule for this benchmark is stated in.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 3 cut points, 1-based
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	return m
}
