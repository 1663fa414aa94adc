// Package neurocuts implements a NeuroCuts-like baseline (Liang et al.,
// SIGCOMM 2019). The published system uses reinforcement learning offline to
// choose per-node decision-tree actions (which dimension to cut, how many
// cuts, or where to split); the classifier it produces is an ordinary
// decision tree. This package reproduces that architecture with a budgeted
// stochastic policy search in place of the RL loop: a linear scoring policy
// over node features selects actions, candidate policies are sampled and
// hill-climbed, each is evaluated by building a tree and measuring the same
// objective NeuroCuts optimizes (memory footprint and expected walk depth),
// and the best policy builds the final tree. The substitution preserves the
// classification-time behaviour the NuevoMatch evaluation measures: a
// lookup walks an ordinary decision tree whatever search chose its cuts,
// so its cost depends on the tree's depth, fan-out and leaf sizes, which
// the search optimizes under the same objective, not on how the policy was
// found.
package neurocuts

import (
	"math"
	"math/rand"

	"nuevomatch/internal/classifiers/dtree"
	"nuevomatch/internal/rules"
)

// Config controls the policy search.
type Config struct {
	// Binth is the leaf threshold.
	Binth int
	// Iterations is the number of candidate policies evaluated; the paper
	// gives NeuroCuts hours of search — scale this up for closer parity.
	Iterations int
	// MemoryWeight/DepthWeight blend the two objectives ("bytes per rule"
	// vs "expected walk depth"); NeuroCuts exposes the same trade-off.
	MemoryWeight, DepthWeight float64
	// Seed makes the search deterministic.
	Seed int64
	// SampleSize caps the rules used during search evaluation; the final
	// tree always uses the full set. 0 means no cap.
	SampleSize int
}

// DefaultConfig is a laptop-scale stand-in for the paper's 36-hour
// hyperparameter sweep.
func DefaultConfig() Config {
	return Config{
		Binth:        8,
		Iterations:   24,
		MemoryWeight: 1,
		DepthWeight:  1,
		Seed:         1,
		SampleSize:   4096,
	}
}

// policyParams weight the node features that score each candidate action.
type policyParams struct {
	wDistinct float64 // distinct range starts in the dimension
	wSpan     float64 // fraction of the dimension still uncut
	wRepl     float64 // estimated replication of the action (penalty)
	wBalance  float64 // balance of the split
	cutBias   float64 // preference for cutting over splitting
	cutsExp   float64 // in [0,1]: aggressiveness of the cut fan-out
}

func randomParams(rng *rand.Rand) policyParams {
	return policyParams{
		wDistinct: rng.Float64() * 2,
		wSpan:     rng.Float64(),
		wRepl:     rng.Float64() * 2,
		wBalance:  rng.Float64() * 2,
		cutBias:   rng.NormFloat64(),
		cutsExp:   rng.Float64(),
	}
}

func (p policyParams) perturb(rng *rand.Rand) policyParams {
	q := p
	switch rng.Intn(6) {
	case 0:
		q.wDistinct = math.Max(0, q.wDistinct+rng.NormFloat64()*0.3)
	case 1:
		q.wSpan = math.Max(0, q.wSpan+rng.NormFloat64()*0.2)
	case 2:
		q.wRepl = math.Max(0, q.wRepl+rng.NormFloat64()*0.3)
	case 3:
		q.wBalance = math.Max(0, q.wBalance+rng.NormFloat64()*0.3)
	case 4:
		q.cutBias += rng.NormFloat64() * 0.3
	case 5:
		q.cutsExp = math.Min(1, math.Max(0, q.cutsExp+rng.NormFloat64()*0.15))
	}
	return q
}

// Classifier is the final tree chosen by the search.
type Classifier struct {
	tree *dtree.Tree
}

var (
	_ rules.BoundedClassifier = (*Classifier)(nil)
	_ rules.Freezable         = (*Classifier)(nil)
)

// New runs the policy search and builds the final classifier.
func New(rs *rules.RuleSet, cfg Config) *Classifier {
	if cfg.Binth <= 0 {
		cfg.Binth = 8
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1
	}
	if cfg.MemoryWeight == 0 && cfg.DepthWeight == 0 {
		cfg.MemoryWeight, cfg.DepthWeight = 1, 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	eval := rs
	if cfg.SampleSize > 0 && rs.Len() > cfg.SampleSize {
		positions := rng.Perm(rs.Len())[:cfg.SampleSize]
		eval = rs.Subset(positions)
	}

	best := randomParams(rng)
	bestCost := math.Inf(1)
	for it := 0; it < cfg.Iterations; it++ {
		var cand policyParams
		if it%3 == 0 || math.IsInf(bestCost, 1) {
			cand = randomParams(rng) // explore
		} else {
			cand = best.perturb(rng) // exploit
		}
		tr := dtree.Build(eval, dtree.Config{Binth: cfg.Binth, Policy: cand.policy(eval)})
		st := tr.Stats()
		cost := cfg.MemoryWeight*float64(tr.MemoryFootprint())/float64(eval.Len()+1) +
			cfg.DepthWeight*float64(st.SumLeafDepth)/float64(st.Leaves)
		if cost < bestCost {
			bestCost, best = cost, cand
		}
	}
	return &Classifier{tree: dtree.Build(rs, dtree.Config{Binth: cfg.Binth, Policy: best.policy(rs)})}
}

// Build adapts New (with defaults) to the rules.Builder signature.
func Build(rs *rules.RuleSet) (rules.Classifier, error) {
	return New(rs, DefaultConfig()), nil
}

// policy scores, per node, a cut on each dimension and the best balanced
// split, and returns the action with the highest score.
func (p policyParams) policy(rs *rules.RuleSet) dtree.Policy {
	return func(ruleIdx []int32, box []rules.Range, depth int) dtree.Action {
		bestScore := math.Inf(-1)
		action := dtree.Action{Kind: dtree.KindLeaf}

		for d := range box {
			span := box[d].Size()
			if span < 4 {
				continue
			}
			distinct := 0
			seen := make(map[uint32]struct{}, len(ruleIdx))
			for _, ri := range ruleIdx {
				lo := rs.Rules[ri].Fields[d].Lo
				if lo < box[d].Lo {
					lo = box[d].Lo
				}
				if _, dup := seen[lo]; !dup {
					seen[lo] = struct{}{}
					distinct++
				}
			}
			if distinct < 2 {
				continue
			}
			// Replication estimate: how many rules span more than half the
			// box and would be copied into many children.
			wide := 0
			for _, ri := range ruleIdx {
				f := rs.Rules[ri].Fields[d]
				if f.Covers(box[d]) || f.Size() > span/2 {
					wide++
				}
			}
			score := p.cutBias +
				p.wDistinct*float64(distinct)/float64(len(ruleIdx)) +
				p.wSpan*math.Log2(float64(span))/32 -
				p.wRepl*float64(wide)/float64(len(ruleIdx))
			if score > bestScore {
				// Fan-out is capped at 64: wider cuts buy little separation
				// and inflate replication on wildcard-heavy nodes (the
				// dtree space-factor guard would veto them anyway).
				maxCuts := 2
				for maxCuts < distinct && maxCuts < 64 {
					maxCuts <<= 1
				}
				cuts := 2 + int(p.cutsExp*float64(maxCuts-2))
				bestScore = score
				action = dtree.Action{Kind: dtree.KindCut, Dim: d, NumCuts: cuts}
			}
		}

		if dim, at, l, r, ok := medianSplit(rs, ruleIdx, box); ok {
			bal := 1 - math.Abs(float64(l-r))/float64(l+r+1)
			repl := float64(l+r-len(ruleIdx)) / float64(len(ruleIdx))
			score := p.wBalance*bal - p.wRepl*repl
			if score > bestScore {
				action = dtree.Action{Kind: dtree.KindSplit, Dim: dim, SplitAt: at}
			}
		}
		return action
	}
}

// maxSplitCandidates caps the endpoints scored per dimension (each costs
// O(rules)); candidates are evenly subsampled beyond it.
const maxSplitCandidates = 32

// medianSplit returns the most balanced endpoint split across dimensions.
func medianSplit(rs *rules.RuleSet, ruleIdx []int32, box []rules.Range) (dim int, at uint32, l, r int, ok bool) {
	bestCost := math.MaxInt64
	step := 1
	if len(ruleIdx) > maxSplitCandidates {
		step = len(ruleIdx) / maxSplitCandidates
	}
	for d := range box {
		if box[d].Size() < 2 {
			continue
		}
		for i := 0; i < len(ruleIdx); i += step {
			ri := ruleIdx[i]
			f := rs.Rules[ri].Fields[d]
			cand := f.Hi
			if cand < box[d].Lo || cand >= box[d].Hi {
				continue
			}
			var cl, cr int
			for _, rj := range ruleIdx {
				g := rs.Rules[rj].Fields[d]
				if g.Lo <= cand {
					cl++
				}
				if g.Hi > cand {
					cr++
				}
			}
			if cl == len(ruleIdx) && cr == len(ruleIdx) {
				continue
			}
			cost := cl
			if cr > cost {
				cost = cr
			}
			if cost < bestCost {
				bestCost, dim, at, l, r, ok = cost, d, cand, cl, cr, true
			}
		}
	}
	return
}

// Name implements rules.Classifier.
func (c *Classifier) Name() string { return "neurocuts" }

// Lookup implements rules.Classifier.
func (c *Classifier) Lookup(p rules.Packet) int { return c.tree.Lookup(p) }

// LookupWithBound implements rules.BoundedClassifier.
func (c *Classifier) LookupWithBound(p rules.Packet, bestPrio int32) int {
	return c.tree.LookupWithBound(p, bestPrio)
}

// MemoryFootprint implements rules.Classifier.
func (c *Classifier) MemoryFootprint() int { return c.tree.MemoryFootprint() }

// Freeze implements rules.Freezable. The tree is immutable once built, so
// the frozen form is a one-tree forest sharing it.
func (c *Classifier) Freeze() rules.FrozenClassifier { return dtree.Forest{c.tree} }

// Stats exposes the final tree's build statistics.
func (c *Classifier) Stats() dtree.Stats { return c.tree.Stats() }
