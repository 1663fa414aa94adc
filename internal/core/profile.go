package core

import (
	"math"
	"time"

	"nuevomatch/internal/rules"
)

// Profile is the per-component runtime breakdown of Figure 14: RQ-RMI
// inference, secondary search, multi-field validation, and the remainder
// classifier, accumulated over a packet trace.
type Profile struct {
	Inference time.Duration
	Search    time.Duration
	Validate  time.Duration
	Remainder time.Duration
	Packets   int
}

// Total returns the summed component time.
func (p Profile) Total() time.Duration {
	return p.Inference + p.Search + p.Validate + p.Remainder
}

// PerPacket returns the per-packet duration of each component in the
// Figure 14 order (remainder, search, validation, inference).
func (p Profile) PerPacket() (remainder, search, validate, inference time.Duration) {
	if p.Packets == 0 {
		return
	}
	n := time.Duration(p.Packets)
	return p.Remainder / n, p.Search / n, p.Validate / n, p.Inference / n
}

// ProfileTrace classifies every packet while timing each pipeline phase
// separately. It is slower than Lookup (four clock reads per packet) and
// exists for the Figure 14 experiment; results match Lookup exactly. Like
// Lookup it runs against one atomically loaded snapshot, lock-free.
func (e *Engine) ProfileTrace(pkts []rules.Packet) (Profile, []int) {
	s := e.snapshot()
	var prof Profile
	out := make([]int, len(pkts))

	type pred struct {
		pred, err int
	}
	preds := make([]pred, len(s.isets))
	entries := make([]int, len(s.isets))

	for pi, p := range pkts {
		best, bestPrio := rules.NoMatch, int32(math.MaxInt32)

		t0 := time.Now()
		for i := range s.isets {
			is := &s.isets[i]
			pr, errB := is.model.Predict(p[is.field])
			preds[i] = pred{pr, errB}
		}
		t1 := time.Now()
		for i := range s.isets {
			is := &s.isets[i]
			if idx, ok := is.model.Search(p[is.field], preds[i].pred, preds[i].err); ok {
				entries[i] = idx
			} else {
				entries[i] = -1
			}
		}
		t2 := time.Now()
		for i := range s.isets {
			if entries[i] < 0 {
				continue
			}
			if id, prio, ok := s.isets[i].candidate(entries[i], p, bestPrio); ok {
				best, bestPrio = id, prio
			}
		}
		t3 := time.Now()
		if id := s.rem.lookupWithBound(p, bestPrio); id >= 0 {
			out[pi] = id
		} else {
			out[pi] = best
		}
		t4 := time.Now()

		prof.Inference += t1.Sub(t0)
		prof.Search += t2.Sub(t1)
		prof.Validate += t3.Sub(t2)
		prof.Remainder += t4.Sub(t3)
	}
	prof.Packets = len(pkts)
	return prof, out
}
