package dtree

import (
	"math"
	"math/rand"
	"testing"

	"nuevomatch/internal/rules"
)

// naivePolicy cuts dimension (depth mod d) into 4, falling back to leaves.
func naivePolicy(ruleIdx []int32, box []rules.Range, depth int) Action {
	d := depth % len(box)
	if box[d].Size() < 4 {
		return Action{Kind: KindLeaf}
	}
	return Action{Kind: KindCut, Dim: d, NumCuts: 4}
}

func randomRules(rng *rand.Rand, n, dims int) *rules.RuleSet {
	rs := rules.NewRuleSet(dims)
	for i := 0; i < n; i++ {
		fields := make([]rules.Range, dims)
		for d := range fields {
			lo := rng.Uint32()
			span := rng.Uint32() % (1 << 24)
			hi := lo + span
			if hi < lo {
				hi = rules.MaxValue
			}
			fields[d] = rules.Range{Lo: lo, Hi: hi}
		}
		rs.AddAuto(fields...)
	}
	return rs
}

func TestLookupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rs := randomRules(rng, 300, 3)
	tr := Build(rs, Config{Binth: 8, Policy: naivePolicy})
	for i := 0; i < 2000; i++ {
		p := rules.Packet{rng.Uint32(), rng.Uint32(), rng.Uint32()}
		if got, want := tr.Lookup(p), rs.MatchID(p); got != want {
			t.Fatalf("Lookup(%v) = %d, want %d", p, got, want)
		}
	}
}

func TestSplitPolicy(t *testing.T) {
	rs := rules.NewRuleSet(1)
	rs.AddAuto(rules.Range{Lo: 0, Hi: 99})
	rs.AddAuto(rules.Range{Lo: 100, Hi: 199})
	rs.AddAuto(rules.Range{Lo: 200, Hi: 299})
	tr := Build(rs, Config{
		Binth: 1,
		Policy: func(ruleIdx []int32, box []rules.Range, depth int) Action {
			// Split at the midpoint of the box each time.
			mid := box[0].Lo + uint32(box[0].Size()/2)
			return Action{Kind: KindSplit, Dim: 0, SplitAt: mid}
		},
	})
	for k := uint32(0); k < 300; k++ {
		want := int(k / 100)
		if got := tr.Lookup(rules.Packet{k}); got != want {
			t.Fatalf("Lookup(%d) = %d, want %d", k, got, want)
		}
	}
	if got := tr.Lookup(rules.Packet{301}); got != rules.NoMatch {
		t.Fatalf("Lookup(301) = %d, want no match", got)
	}
}

func TestEarlyTermination(t *testing.T) {
	rs := rules.NewRuleSet(1)
	rs.Add(rules.Rule{ID: 0, Priority: 10, Fields: []rules.Range{rules.FullRange()}})
	tr := Build(rs, Config{Binth: 8, Policy: naivePolicy})
	if got := tr.LookupWithBound(rules.Packet{5}, 10); got != rules.NoMatch {
		t.Errorf("bound equal to best priority must suppress the match, got %d", got)
	}
	if got := tr.LookupWithBound(rules.Packet{5}, 11); got != 0 {
		t.Errorf("bound above best priority must find the match, got %d", got)
	}
}

func TestDegenerateActionsFallBackToLeaf(t *testing.T) {
	rs := rules.NewRuleSet(1)
	for i := 0; i < 20; i++ {
		rs.AddAuto(rules.FullRange()) // identical wildcards: nothing separates
	}
	tr := Build(rs, Config{
		Binth: 2,
		Policy: func(ruleIdx []int32, box []rules.Range, depth int) Action {
			return Action{Kind: KindCut, Dim: 0, NumCuts: 8}
		},
	})
	st := tr.Stats()
	if st.Leaves != 1 || st.MaxDepth != 0 {
		t.Errorf("useless cuts must collapse to a single root leaf, got %+v", st)
	}
	if got := tr.Lookup(rules.Packet{42}); got != 0 {
		t.Errorf("Lookup = %d, want 0", got)
	}
}

func TestMaxDepthSafetyValve(t *testing.T) {
	rs := rules.NewRuleSet(1)
	for i := 0; i < 64; i++ {
		rs.AddAuto(rules.Range{Lo: 0, Hi: 1000}) // heavy overlap
	}
	tr := Build(rs, Config{
		Binth:    1,
		MaxDepth: 5,
		Policy: func(ruleIdx []int32, box []rules.Range, depth int) Action {
			mid := box[0].Lo + uint32(box[0].Size()/2)
			return Action{Kind: KindSplit, Dim: 0, SplitAt: mid}
		},
	})
	if st := tr.Stats(); st.MaxDepth > 5 {
		t.Errorf("MaxDepth = %d, want <= 5", st.MaxDepth)
	}
	if got := tr.Lookup(rules.Packet{500}); got != 0 {
		t.Errorf("Lookup = %d, want 0", got)
	}
}

func TestStatsAndMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rs := randomRules(rng, 200, 2)
	tr := Build(rs, Config{Binth: 8, Policy: naivePolicy})
	st := tr.Stats()
	if st.Nodes <= 0 || st.Leaves <= 0 || st.LeafEntries < rs.Len() {
		t.Errorf("implausible stats: %+v", st)
	}
	if tr.MemoryFootprint() <= 0 {
		t.Error("memory footprint must be positive")
	}
}

func TestEmptyTree(t *testing.T) {
	rs := rules.NewRuleSet(2)
	tr := Build(rs, Config{Binth: 8, Policy: naivePolicy})
	if got := tr.Lookup(rules.Packet{1, 2}); got != rules.NoMatch {
		t.Errorf("Lookup on empty tree = %d", got)
	}
	if tr.root.BestPrio != math.MaxInt32 {
		t.Error("empty tree root must carry the sentinel priority")
	}
}
