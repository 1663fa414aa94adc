package rqrmi

import (
	"math"
	"testing"
)

// curvedStaircase returns n entries whose starts grow quadratically, so the
// index staircase is far from linear and a fit needs several pieces, and the
// responsibility covering all of them.
func curvedStaircase(n int) (los, his []uint32, resp []kinterval) {
	for i := 0; i < n; i++ {
		lo := uint32(4 * i * i)
		los = append(los, lo)
		his = append(his, lo+uint32(i%5))
	}
	return los, his, []kinterval{{0, uint64(his[n-1]) + 100}}
}

// TestFitPiecewiseLinear checks that a fitted submodel is continuous
// piecewise linear with at most h kinks: between two adjacent kinks of its
// hidden units the unclamped output must be exactly linear, verified by
// second differences over a fine grid away from the kinks.
func TestFitPiecewiseLinear(t *testing.T) {
	const h = 8
	los, his, resp := curvedStaircase(80)
	inSpan := float64(resp[0].hi+1) * scale
	s := fitStaircase(newStaircase(resp, los, his, 0, inSpan, h), h, len(los), 64)
	s.roundParamsF32()

	var kinks []float64
	for k := range s.w1 {
		if s.w1[k] != 0 && s.w2[k] != 0 {
			if g := -s.b1[k] / s.w1[k]; g > 0 && g < 1 {
				kinks = append(kinks, g)
			}
		}
	}
	if len(kinks) == 0 || len(kinks) > h {
		t.Fatalf("fit has %d kinks inside its input range, want 1..%d", len(kinks), h)
	}
	raw := func(u float64) float64 {
		y := s.b2
		for k, w := range s.w1 {
			if z := u*w + s.b1[k]; z > 0 {
				y += s.w2[k] * z
			}
		}
		return y
	}
	isNearKink := func(u float64) bool {
		for _, g := range kinks {
			if math.Abs(u-g) < 1e-3 {
				return true
			}
		}
		return false
	}
	const step = 1e-4
	for u := 0.0; u < 1-2*step; u += step {
		if isNearKink(u) || isNearKink(u+step) || isNearKink(u+2*step) {
			continue
		}
		if d2 := raw(u) - 2*raw(u+step) + raw(u+2*step); math.Abs(d2) > 1e-9 {
			t.Fatalf("second difference %v at u=%v: fitted output is not piecewise linear", d2, u)
		}
	}
	if kc := countKinks(&s, resp[0].lo, resp[0].hi); kc > h {
		t.Fatalf("fitted function has %d kinks over its keys, more than its %d hidden units", kc, h)
	}
}

// TestFitIsDeterministic fits the same staircase twice, from freshly built
// inputs, and requires bit-identical weights.
func TestFitIsDeterministic(t *testing.T) {
	const h = 8
	fit := func() submodel {
		los, his, resp := curvedStaircase(120)
		inSpan := float64(resp[0].hi+1) * scale
		s := fitStaircase(newStaircase(resp, los, his, 0, inSpan, h), h, len(los), 64)
		s.roundParamsF32()
		return s
	}
	a, b := fit(), fit()
	if a.b2 != b.b2 || a.inLo != b.inLo || a.inSpan != b.inSpan {
		t.Fatal("fitting must be deterministic")
	}
	for k := range a.w1 {
		if a.w1[k] != b.w1[k] || a.b1[k] != b.b1[k] || a.w2[k] != b.w2[k] {
			t.Fatalf("fitting must be deterministic: unit %d differs", k)
		}
	}
}
