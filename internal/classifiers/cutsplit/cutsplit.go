// Package cutsplit implements the CutSplit baseline (Li et al., INFOCOM
// 2018) as evaluated in the paper: the rule-set is pre-partitioned by which
// IP fields are "small" (long prefixes), each group gets its own decision
// tree that first applies fixed equal-width cuts (FiCuts) on the small
// fields and then switches to balanced splitting (HyperSplit-style) when
// cutting stops paying off, with binth = 8 (§5.1).
package cutsplit

import (
	"math"

	"nuevomatch/internal/classifiers/dtree"
	"nuevomatch/internal/rules"
)

// Config tunes the construction.
type Config struct {
	// Binth is the leaf threshold; the paper's evaluation uses 8.
	Binth int
	// SmallPrefix is the prefix length at or above which an IP field is
	// considered "small" for pre-partitioning (CutSplit uses 16).
	SmallPrefix int
	// MaxCuts bounds the children of one FiCuts node.
	MaxCuts int
}

// DefaultConfig matches the paper's evaluation settings.
func DefaultConfig() Config {
	return Config{Binth: 8, SmallPrefix: 16, MaxCuts: 64}
}

// Classifier is a set of per-group CutSplit trees.
type Classifier struct {
	trees dtree.Forest
}

var (
	_ rules.BoundedClassifier = (*Classifier)(nil)
	_ rules.Freezable         = (*Classifier)(nil)
)

// New builds a CutSplit classifier.
func New(rs *rules.RuleSet, cfg Config) *Classifier {
	if cfg.Binth <= 0 {
		cfg.Binth = 8
	}
	if cfg.SmallPrefix <= 0 {
		cfg.SmallPrefix = 16
	}
	if cfg.MaxCuts < 2 {
		cfg.MaxCuts = 64
	}
	c := &Classifier{}
	for _, g := range partitionBySmallFields(rs, cfg.SmallPrefix) {
		if g.set.Len() == 0 {
			continue
		}
		smallDims := g.smallDims
		policy := func(ruleIdx []int32, box []rules.Range, depth int) dtree.Action {
			return cutSplitPolicy(g.set, ruleIdx, box, depth, smallDims, cfg)
		}
		c.trees = append(c.trees, dtree.Build(g.set, dtree.Config{Binth: cfg.Binth, Policy: policy}))
	}
	return c
}

// Build adapts New (with defaults) to the rules.Builder signature.
func Build(rs *rules.RuleSet) (rules.Classifier, error) {
	return New(rs, DefaultConfig()), nil
}

// group is one pre-partition: the subset of rules that are small in exactly
// the dimensions of smallDims.
type group struct {
	set       *rules.RuleSet
	smallDims []int
}

// partitionBySmallFields implements CutSplit's pre-partitioning on the two
// IP dimensions (fields 0 and 1 when present): four groups keyed by the
// small/big status of each. Rule-sets with fewer than 2 fields use a single
// group keyed on field 0.
func partitionBySmallFields(rs *rules.RuleSet, smallPrefix int) []group {
	ipDims := []int{0}
	if rs.NumFields >= 2 {
		ipDims = []int{0, 1}
	}
	small := func(r *rules.Rule, d int) bool {
		return r.Fields[d].CommonPrefixLen() >= smallPrefix
	}
	groups := make(map[uint8]*group)
	for i := range rs.Rules {
		var key uint8
		var dims []int
		for bi, d := range ipDims {
			if small(&rs.Rules[i], d) {
				key |= 1 << bi
				dims = append(dims, d)
			}
		}
		g, ok := groups[key]
		if !ok {
			g = &group{set: rules.NewRuleSet(rs.NumFields), smallDims: dims}
			groups[key] = g
		}
		g.set.Add(rs.Rules[i])
	}
	out := make([]group, 0, len(groups))
	for key := uint8(0); key < 4; key++ { // deterministic order
		if g, ok := groups[key]; ok {
			out = append(out, *g)
		}
	}
	return out
}

// cutSplitPolicy: FiCuts on small dimensions while effective, then balanced
// splits on the most discriminating dimension.
func cutSplitPolicy(rs *rules.RuleSet, ruleIdx []int32, box []rules.Range, depth int, smallDims []int, cfg Config) dtree.Action {
	// Phase 1 — FiCuts: equal-width cuts on the small dimension with the
	// most distinct range starts, as long as the box is still wide.
	bestDim, bestDistinct := -1, 1
	for _, d := range smallDims {
		if box[d].Size() < 4 {
			continue
		}
		if n := distinctStarts(rs, ruleIdx, d, box[d]); n > bestDistinct {
			bestDim, bestDistinct = d, n
		}
	}
	if bestDim >= 0 {
		cuts := nextPow2(len(ruleIdx) / cfg.Binth)
		if cuts > cfg.MaxCuts {
			cuts = cfg.MaxCuts
		}
		if cuts >= 2 {
			return dtree.Action{Kind: dtree.KindCut, Dim: bestDim, NumCuts: cuts}
		}
	}
	// Phase 2 — splitting: over every dimension, the endpoint-median split
	// that best balances the two children wins.
	dim, at, ok := bestBalancedSplit(rs, ruleIdx, box)
	if !ok {
		return dtree.Action{Kind: dtree.KindLeaf}
	}
	return dtree.Action{Kind: dtree.KindSplit, Dim: dim, SplitAt: at}
}

// distinctStarts counts distinct range starts of the rules clipped to the
// box — a proxy for how much an equal cut can separate.
func distinctStarts(rs *rules.RuleSet, ruleIdx []int32, d int, box rules.Range) int {
	seen := make(map[uint32]struct{}, len(ruleIdx))
	for _, ri := range ruleIdx {
		lo := rs.Rules[ri].Fields[d].Lo
		if lo < box.Lo {
			lo = box.Lo
		}
		seen[lo] = struct{}{}
	}
	return len(seen)
}

// maxSplitCandidates caps the endpoints evaluated per dimension; scoring a
// candidate is O(rules), so an uncapped scan would be quadratic on large
// nodes.
const maxSplitCandidates = 48

// bestBalancedSplit scans each dimension's clipped endpoints and picks the
// split minimizing max(|left|, |right|) plus a replication penalty.
func bestBalancedSplit(rs *rules.RuleSet, ruleIdx []int32, box []rules.Range) (dim int, at uint32, ok bool) {
	bestCost := math.MaxFloat64
	for d := range box {
		if box[d].Size() < 2 {
			continue
		}
		// Candidate split points: rule range boundaries inside the box,
		// evenly subsampled on large nodes.
		cands := make([]uint32, 0, 2*len(ruleIdx))
		for _, ri := range ruleIdx {
			f := rs.Rules[ri].Fields[d]
			if f.Lo > box[d].Lo && f.Lo <= box[d].Hi {
				cands = append(cands, f.Lo-1)
			}
			if f.Hi >= box[d].Lo && f.Hi < box[d].Hi {
				cands = append(cands, f.Hi)
			}
		}
		if len(cands) > maxSplitCandidates {
			step := len(cands) / maxSplitCandidates
			thin := cands[:0]
			for i := 0; i < len(cands); i += step {
				thin = append(thin, cands[i])
			}
			cands = thin
		}
		for _, cand := range cands {
			var l, r int
			for _, ri := range ruleIdx {
				f := rs.Rules[ri].Fields[d]
				if f.Lo <= cand {
					l++
				}
				if f.Hi > cand {
					r++
				}
			}
			if l == len(ruleIdx) && r == len(ruleIdx) {
				continue // pure replication
			}
			bal := float64(max(l, r))
			repl := float64(l+r-len(ruleIdx)) * 0.5
			if cost := bal + repl; cost < bestCost {
				bestCost, dim, at, ok = cost, d, cand, true
			}
		}
	}
	return dim, at, ok
}

func nextPow2(n int) int {
	p := 2
	for p < n {
		p <<= 1
	}
	return p
}

// Name implements rules.Classifier.
func (c *Classifier) Name() string { return "cutsplit" }

// Lookup implements rules.Classifier: every group tree is probed and the
// best priority wins; trees are consulted with a tightening bound.
func (c *Classifier) Lookup(p rules.Packet) int {
	return c.LookupWithBound(p, math.MaxInt32)
}

// LookupWithBound implements rules.BoundedClassifier.
func (c *Classifier) LookupWithBound(p rules.Packet, bestPrio int32) int {
	return c.trees.Lookup(p, bestPrio, nil)
}

// MemoryFootprint implements rules.Classifier.
func (c *Classifier) MemoryFootprint() int { return c.trees.MemoryFootprint() }

// Freeze implements rules.Freezable. The trees are immutable once built, so
// the frozen form is the forest itself.
func (c *Classifier) Freeze() rules.FrozenClassifier { return c.trees }

// Stats aggregates the per-tree build statistics.
func (c *Classifier) Stats() []dtree.Stats {
	out := make([]dtree.Stats, len(c.trees))
	for i, t := range c.trees {
		out[i] = t.Stats()
	}
	return out
}
