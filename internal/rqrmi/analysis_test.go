package rqrmi

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nuevomatch/internal/rules"
)

// randomSubmodel builds a submodel with 8 hidden units of randomized weights
// normalized over [lo, hi] in key space, mimicking an arbitrary network:
// kinks spread over the input range around a near-identity function, then
// perturbed.
func randomSubmodel(rng *rand.Rand, lo, hi uint64) submodel {
	const h = 8
	s := submodel{w1: make([]float64, h), b1: make([]float64, h), w2: make([]float64, h)}
	for k := 0; k < h; k++ {
		s.w1[k] = 1 + rng.NormFloat64()*2
		s.b1[k] = -float64(k)/h + rng.NormFloat64()
		s.w2[k] = rng.NormFloat64()
	}
	s.w2[0]++
	s.b2 = rng.NormFloat64() * 0.3
	s.inLo = float64(lo) * scale
	s.inSpan = (float64(hi) - float64(lo)) * scale
	if s.inSpan <= 0 {
		s.inSpan = scale
	}
	return s
}

// TestPartitionMatchesBruteForce is the keystone property test: partition's
// segments must be exactly the maximal constant-bucket runs found by
// enumerating every key.
func TestPartitionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		lo := uint64(rng.Intn(1000))
		hi := lo + uint64(rng.Intn(30000)) + 1
		w := 1 + rng.Intn(64)
		s := randomSubmodel(rng, lo, hi)

		starts := s.partition(lo, hi, w)
		if len(starts) == 0 || starts[0] != lo {
			t.Fatalf("trial %d: partition must start at lo: %v", trial, starts)
		}
		// Brute force: walk every key and record bucket flips.
		var want []uint64
		prev := -1
		for k := lo; k <= hi; k++ {
			b := s.bucket(k, w)
			if b != prev {
				want = append(want, k)
				prev = b
			}
		}
		// Every brute-force flip must be a partition start (partition may
		// contain extra starts at kink keys, which is harmless), and every
		// partition segment must be constant.
		si := make(map[uint64]bool, len(starts))
		for _, k := range starts {
			si[k] = true
		}
		for _, k := range want {
			if !si[k] {
				t.Fatalf("trial %d (w=%d): brute-force flip at key %d missing from partition %v", trial, w, k, starts)
			}
		}
		for i, start := range starts {
			end := hi
			if i+1 < len(starts) {
				end = starts[i+1] - 1
			}
			b0 := s.bucket(start, w)
			for k := start; k <= end; k++ {
				if s.bucket(k, w) != b0 {
					t.Fatalf("trial %d: segment [%d,%d] not constant at key %d", trial, start, end, k)
				}
			}
		}
	}
}

func TestPartitionSingleton(t *testing.T) {
	s := randomSubmodel(rand.New(rand.NewSource(1)), 5, 5)
	starts := s.partition(5, 5, 10)
	if len(starts) != 1 || starts[0] != 5 {
		t.Errorf("partition of a singleton = %v, want [5]", starts)
	}
}

// TestPropagateCoversDomain verifies that responsibilities of the next stage
// are disjoint and cover every key (Definition A.3: responsibilities of
// submodels in the same stage are disjoint).
func TestPropagateCoversDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		lo := uint64(0)
		hi := uint64(20000 + rng.Intn(20000))
		w := 2 + rng.Intn(14)
		s := randomSubmodel(rng, lo, hi)

		into := newRespSet(w)
		s.propagate([]kinterval{{lo, hi}}, w, into)

		// Rebuild a key->bucket map from the responsibilities.
		covered := make(map[uint64]int)
		for b, ivs := range into.ivs {
			for _, iv := range ivs {
				for k := iv.lo; k <= iv.hi; k++ {
					if prev, dup := covered[k]; dup {
						t.Fatalf("trial %d: key %d assigned to buckets %d and %d", trial, k, prev, b)
					}
					covered[k] = b
				}
			}
		}
		for k := lo; k <= hi; k++ {
			b, ok := covered[k]
			if !ok {
				t.Fatalf("trial %d: key %d not covered by any responsibility", trial, k)
			}
			if want := s.bucket(k, w); b != want {
				t.Fatalf("trial %d: key %d in responsibility %d but routes to %d", trial, k, b, want)
			}
		}
	}
}

func TestRespSetMerging(t *testing.T) {
	rs := newRespSet(2)
	rs.add(0, 0, 10)
	rs.add(0, 11, 20) // contiguous: must merge
	rs.add(0, 30, 40) // gap: stays separate
	rs.add(1, 5, 5)
	if len(rs.ivs[0]) != 2 || rs.ivs[0][0] != (kinterval{0, 20}) || rs.ivs[0][1] != (kinterval{30, 40}) {
		t.Errorf("bucket 0 intervals = %v", rs.ivs[0])
	}
	if len(rs.ivs[1]) != 1 || rs.ivs[1][0] != (kinterval{5, 5}) {
		t.Errorf("bucket 1 intervals = %v", rs.ivs[1])
	}
}

// TestRespSetOutOfOrder: a bucket fed by several parents receives
// intervals out of key order when a parent's output falls as keys rise;
// every interval must survive, sorted, with contiguous ones merged.
func TestRespSetOutOfOrder(t *testing.T) {
	rs := newRespSet(1)
	rs.add(0, 174916, maxKey)
	rs.add(0, 61369, 174915) // contiguous with the next: merges
	rs.add(0, 100, 200)      // before both, separate
	rs.add(0, 201, 300)      // contiguous with the previous
	rs.add(0, 10, 20)        // first
	want := []kinterval{{10, 20}, {100, 300}, {61369, maxKey}}
	if !slices.Equal(rs.ivs[0], want) {
		t.Errorf("intervals = %v, want %v", rs.ivs[0], want)
	}
}

// TestTrainDecreasingRoot trains on the dst-port keys of an iSet that an
// engine built after a long churn (acl1, 2000 rules, 123k random updates).
// Its root submodel is a near-constant whose output falls as keys rise, so
// a leaf collects responsibility from two stage-1 parents in reverse key
// order. When add dropped the second interval, the leaf's error bound
// missed 125 of the entries and lookups of them failed.
func TestTrainDecreasingRoot(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "drifted_dstport_keys.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	for i, f := range strings.Fields(string(data)) {
		k, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, Entry{Range: rules.Range{Lo: uint32(k), Hi: uint32(k)}, Value: i})
	}
	m, _, err := Train(entries, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for i, e := range entries {
		if j, ok := m.LookupEntry(e.Range.Lo); !ok || j != i {
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d keys not found", bad, len(entries))
	}
}

func TestTotalKeysAndHull(t *testing.T) {
	resp := []kinterval{{0, 9}, {20, 20}, {30, 39}}
	if got := totalKeys(resp); got != 21 {
		t.Errorf("totalKeys = %d, want 21", got)
	}
	h, ok := hull(resp)
	if !ok || h != (kinterval{0, 39}) {
		t.Errorf("hull = %v, %v", h, ok)
	}
	if _, ok := hull(nil); ok {
		t.Error("hull of empty responsibility must report !ok")
	}
}

// TestLeafMaxErrorMatchesBruteForce checks the exact bound against every key
// of small staircases, for arbitrary networks and for fitted ones.
func TestLeafMaxErrorMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		// A small universe of entries within [0, 4000].
		var los, his []uint32
		cur := uint32(rng.Intn(50))
		for cur < 4000 {
			w := uint32(rng.Intn(80))
			los = append(los, cur)
			his = append(his, cur+w)
			cur += w + 1 + uint32(rng.Intn(100))
		}
		n := len(los)
		resp := []kinterval{{0, 1500}, {1600, 4200}}
		fitted := fitStaircase(newStaircase(resp, los, his, 0, 4200*scale, 8), 8, n, 64)
		fitted.roundParamsF32()
		for name, s := range map[string]submodel{"random": randomSubmodel(rng, 0, 4200), "fitted": fitted} {
			got := s.leafMaxError(resp, los, his)

			var want int32
			for _, iv := range resp {
				for k := iv.lo; k <= iv.hi; k++ {
					ti := -1
					for j := 0; j < n; j++ {
						if uint32(k) >= los[j] && uint32(k) <= his[j] {
							ti = j
							break
						}
					}
					if ti < 0 {
						continue
					}
					d := int32(s.bucket(k, n) - ti)
					if d < 0 {
						d = -d
					}
					if d > want {
						want = d
					}
				}
			}
			if got != want {
				t.Fatalf("trial %d (%s): leafMaxError = %d, brute force = %d", trial, name, got, want)
			}
		}
		if kinks := countKinks(&fitted, 0, 4200); kinks > len(fitted.w1) {
			t.Fatalf("trial %d: fitted function has %d kinks, more than its %d hidden units", trial, kinks, len(fitted.w1))
		}
	}
}

// countKinks counts the slope changes of the unclamped network output over
// the keys [lo, hi]: runs of nonzero second differences, each of which is
// one kink between or on lattice keys.
func countKinks(s *submodel, lo, hi uint64) int {
	raw := func(k uint64) float64 {
		u := (float64(k)*scale - s.inLo) / s.inSpan
		y := s.b2
		for j, w := range s.w1 {
			if z := u*w + s.b1[j]; z > 0 {
				y += s.w2[j] * z
			}
		}
		return y
	}
	kinks, inRun := 0, false
	for k := lo + 1; k < hi; k++ {
		a, b, c := raw(k-1), raw(k), raw(k+1)
		bent := math.Abs(a-2*b+c) > 1e-9*(math.Abs(a)+math.Abs(b)+math.Abs(c)+1e-12)
		if bent && !inRun {
			kinks++
		}
		inRun = bent
	}
	return kinks
}

func TestKinkKeysWithinBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 50; trial++ {
		lo := uint64(rng.Intn(1000))
		hi := lo + 1 + uint64(rng.Intn(100000))
		s := randomSubmodel(rng, lo, hi)
		for _, k := range s.kinkKeys(lo, hi) {
			if k < lo || k > hi {
				t.Fatalf("kink key %d outside [%d,%d]", k, lo, hi)
			}
		}
	}
}

func TestDedupKeys(t *testing.T) {
	got := dedupKeys([]uint64{1, 1, 2, 3, 3, 3, 9})
	want := []uint64{1, 2, 3, 9}
	if len(got) != len(want) {
		t.Fatalf("dedupKeys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dedupKeys = %v, want %v", got, want)
		}
	}
	if out := dedupKeys(nil); len(out) != 0 {
		t.Errorf("dedupKeys(nil) = %v", out)
	}
}

func TestBucketClamping(t *testing.T) {
	// A submodel whose raw output exceeds [0,1): bucket must stay in range.
	s := submodel{
		w1: []float64{10}, b1: []float64{0},
		w2: []float64{10}, b2: -5,
		inLo: 0, inSpan: 1,
	}
	for _, k := range []uint64{0, 1 << 16, 1 << 31, maxKey} {
		b := s.bucket(k, 7)
		if b < 0 || b > 6 {
			t.Errorf("bucket(%d) = %d out of [0,6]", k, b)
		}
	}
}
