package rqrmi

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// TrainStats reports what training did, feeding the Figure 15 experiment
// (training time vs. error bound).
type TrainStats struct {
	Submodels int
	// MaxError/MeanError are the stored per-leaf bounds (slack included).
	MaxError  int
	MeanError float64
	Duration  time.Duration
}

// maxKey is the largest key of the input domain D.
const maxKey = uint64(1)<<32 - 1

// Train fits an RQ-RMI to the given non-overlapping ranges following §3.5:
// stage by stage, computing each submodel's responsibility analytically from
// the fitted submodels of the previous stage, fitting the submodel to the
// index staircase of the entries that responsibility overlaps (fit.go), and
// — for leaves — computing the exact worst-case error bound.
//
// Training is deterministic: the same entries and Config give the same
// model, regardless of Workers.
func Train(entries []Entry, cfg Config) (*Model, *TrainStats, error) {
	start := time.Now()
	es, err := validateEntries(entries)
	if err != nil {
		return nil, nil, err
	}
	cfg = cfg.withDefaults(len(es))
	if cfg.StageWidths[0] != 1 {
		return nil, nil, fmt.Errorf("rqrmi: first stage width must be 1, got %d", cfg.StageWidths[0])
	}

	m := &Model{los: make([]uint32, len(es)), his: make([]uint32, len(es)), vals: make([]int, len(es))}
	for i := range es {
		m.los[i], m.his[i], m.vals[i] = es[i].Range.Lo, es[i].Range.Hi, es[i].Value
	}
	if len(es) == 0 {
		m.widths = []int{}
		m.finalize()
		return m, &TrainStats{Duration: time.Since(start)}, nil
	}

	// Clamp widths to the entry count; a stage wider than the number of
	// distinct indexes wastes submodels without refining the prediction.
	widths := make([]int, 0, len(cfg.StageWidths))
	for _, w := range cfg.StageWidths {
		if w > len(es) {
			w = len(es)
		}
		if w < 1 {
			w = 1
		}
		widths = append(widths, w)
	}
	m.widths = widths
	m.stages = make([][]submodel, len(widths))

	t := &trainer{cfg: cfg, model: m}
	stats := &TrainStats{}

	resp := [][]kinterval{{{0, maxKey}}} // stage 0: the whole domain
	for si := range widths {
		m.stages[si] = make([]submodel, widths[si])
		isLeaf := si == len(widths)-1

		var next *respSet
		if !isLeaf {
			next = newRespSet(widths[si+1])
		} else {
			m.errs = make([]int32, widths[si])
		}

		// Fit all submodels of the stage in parallel; each fit depends only
		// on its own responsibility, so the result is independent of
		// scheduling.
		var wg sync.WaitGroup
		sem := make(chan struct{}, cfg.Workers)
		for j := 0; j < widths[si]; j++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(j int) {
				defer wg.Done()
				defer func() { <-sem }()
				sub, errBound := t.fitSubmodel(resp[j], isLeaf)
				m.stages[si][j] = sub
				if isLeaf {
					m.errs[j] = errBound
				}
			}(j)
		}
		wg.Wait()
		stats.Submodels += widths[si]

		if !isLeaf {
			for j := 0; j < widths[si]; j++ {
				m.stages[si][j].propagate(resp[j], widths[si+1], next)
			}
			resp = next.ivs
		}
	}

	var sum float64
	for _, e := range m.errs {
		if e > m.maxErr {
			m.maxErr = e
		}
		sum += float64(e)
	}
	stats.MaxError = int(m.maxErr)
	stats.MeanError = sum / float64(len(m.errs))
	stats.Duration = time.Since(start)
	m.finalize()
	return m, stats, nil
}

type trainer struct {
	cfg   Config
	model *Model
}

// fitSubmodel fits one submodel to its responsibility (see fit.go) and,
// for leaves, returns the stored error bound: the exact worst case of
// Theorem A.13 over the float32-rounded weights, plus the safety slack. For
// internal submodels errBound is 0.
func (t *trainer) fitSubmodel(resp []kinterval, isLeaf bool) (sub submodel, errBound int32) {
	n := len(t.model.los)
	h, ok := hull(resp)
	if !ok {
		// Unreachable submodel: no input routes here. Keep a constant
		// placeholder with a zero bound.
		return t.constant(0, 0, 1), 0
	}
	// The function is fitted in the submodel's normalized input space
	// u = (x - inLo)/inSpan, the same affine transform eval applies. The
	// normalization scalars are snapped to float32 first: the
	// single-precision kernel (§4) stores them in float32, so the fit, the
	// error analysis and the kernel all see the same inputs. scale itself is
	// a power of two, so the fallback span survives the rounding.
	inLo := float64(float32(float64(h.lo) * scale))
	inSpan := float64(float32((float64(h.hi) - float64(h.lo)) * scale))
	if inSpan <= 0 {
		inSpan = scale
	}
	st := newStaircase(resp, t.model.los, t.model.his, inLo, inSpan, t.cfg.Hidden)
	if len(st.u) == 0 {
		// Only gap keys route here: any function is exact. Aim at the
		// entry after the hull so the keys stay near their neighbours.
		next := sort.Search(n, func(i int) bool { return uint64(t.model.los[i]) > h.lo })
		return t.constant(min(next, n-1), inLo, inSpan), 0
	}
	sub = fitStaircase(st, t.cfg.Hidden, n, t.cfg.TargetError)
	// Round the weights to float32-representable values BEFORE computing
	// responsibilities (propagate) and error bounds (leafMaxError): the
	// analysis then proves its theorems about exactly the parameter values
	// the float32 kernel loads, and serializing the model in single
	// precision is lossless.
	sub.roundParamsF32()
	if !isLeaf {
		return sub, 0
	}
	stored := sub.leafMaxError(resp, t.model.los, t.model.his) + int32(t.cfg.SafetySlack)
	if lim := int32(n); stored > lim {
		stored = lim
	}
	return sub, stored
}

// constant returns a submodel predicting index idx everywhere.
func (t *trainer) constant(idx int, inLo, inSpan float64) submodel {
	h := t.cfg.Hidden
	sub := submodel{
		w1: make([]float64, h), b1: make([]float64, h), w2: make([]float64, h),
		b2:   (float64(idx) + 0.5) / float64(max(len(t.model.los), 1)),
		inLo: inLo, inSpan: inSpan,
	}
	sub.roundParamsF32()
	return sub
}

// roundParamsF32 rounds every parameter to its nearest float32 value (still
// stored as float64). Applied before any bound or responsibility analysis,
// so float64-proven results hold verbatim for the float32 parameter form.
func (s *submodel) roundParamsF32() {
	for i := range s.w1 {
		s.w1[i] = float64(float32(s.w1[i]))
		s.b1[i] = float64(float32(s.b1[i]))
		s.w2[i] = float64(float32(s.w2[i]))
	}
	s.b2 = float64(float32(s.b2))
	s.inLo = float64(float32(s.inLo))
	s.inSpan = float64(float32(s.inSpan))
}
