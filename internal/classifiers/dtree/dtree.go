// Package dtree is the decision-tree substrate shared by the CutSplit and
// NeuroCuts baselines: rules are hyper-cubes in field space, internal nodes
// either cut a dimension into equal-width children (HiCuts-style) or split
// it at a chosen point (HyperSplit-style), and leaves hold at most binth
// rules scanned linearly in priority order.
//
// Every node records the best (numerically smallest) priority in its
// subtree, enabling the early-termination optimization of §4 of the
// NuevoMatch paper: a tree-walk stops as soon as the current node cannot
// beat the best match already found.
package dtree

import (
	"math"

	"nuevomatch/internal/rules"
)

// Kind discriminates node types.
type Kind uint8

const (
	// KindLeaf holds rule positions scanned linearly.
	KindLeaf Kind = iota
	// KindCut divides [Lo, Lo+NumChildren·Width) into equal-width children.
	KindCut
	// KindSplit has two children divided at SplitAt (inclusive left).
	KindSplit
)

// Node is one tree node. Exactly the fields for its Kind are meaningful.
type Node struct {
	Kind     Kind
	Dim      int8
	BestPrio int32 // smallest priority value in the subtree

	// Leaf payload: positions into the tree's rule slice, priority-sorted.
	Rules []int32

	// Cut payload.
	Lo       uint32
	Width    uint64 // per-child width (≥ 1)
	Children []*Node

	// Split payload.
	SplitAt     uint32
	Left, Right *Node
}

// Action is a build-policy decision for one node.
type Action struct {
	Kind    Kind   // KindCut or KindSplit; KindLeaf forces a leaf
	Dim     int    // dimension to cut or split
	NumCuts int    // children count for KindCut (≥ 2)
	SplitAt uint32 // inclusive upper bound of the left child for KindSplit
}

// Policy chooses the action for a node given the rules it holds (positions
// into the build rule slice), the node's box, and its depth. Returning
// Action{Kind: KindLeaf} forces a leaf regardless of size.
type Policy func(ruleIdx []int32, box []rules.Range, depth int) Action

// Config controls Build.
type Config struct {
	// Binth is the leaf size threshold (the paper uses 8 for CutSplit).
	Binth int
	// MaxDepth forces a leaf beyond this depth as a safety valve.
	MaxDepth int
	// SpaceFactor rejects cuts whose children hold more than
	// SpaceFactor × the parent's rules in total — HiCuts' spfac guard
	// against replication blowup on wildcard-heavy nodes. Default 4.
	SpaceFactor int
	// MaxNodes is a global node budget; once exceeded every pending node
	// becomes a leaf. Default 32·rules + 4096.
	MaxNodes int
	// Policy drives the cut/split decisions; required.
	Policy Policy
}

// Stats summarizes a built tree.
type Stats struct {
	Nodes       int
	Leaves      int
	MaxDepth    int
	LeafEntries int // total rule references across leaves (≥ len(rules) with replication)
	// SumLeafDepth accumulates the depth of every leaf, so
	// SumLeafDepth/Leaves approximates the expected tree-walk length —
	// one of the two objectives NeuroCuts optimizes.
	SumLeafDepth int
}

// Tree is a built decision tree over a snapshot of a rule-set.
type Tree struct {
	rules []rules.Rule
	root  *Node
	stats Stats
}

// Build constructs a tree over rs with the given config. The tree snapshots
// the rules; later changes to rs are not observed.
func Build(rs *rules.RuleSet, cfg Config) *Tree {
	if cfg.Binth <= 0 {
		cfg.Binth = 8
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 48
	}
	if cfg.SpaceFactor <= 0 {
		cfg.SpaceFactor = 4
	}
	if cfg.MaxNodes <= 0 {
		cfg.MaxNodes = 32*rs.Len() + 4096
	}
	t := &Tree{rules: append([]rules.Rule(nil), rs.Rules...)}
	all := make([]int32, len(t.rules))
	for i := range all {
		all[i] = int32(i)
	}
	box := make([]rules.Range, rs.NumFields)
	for d := range box {
		box[d] = rules.FullRange()
	}
	t.root = t.build(all, box, 0, cfg)
	return t
}

func (t *Tree) build(ruleIdx []int32, box []rules.Range, depth int, cfg Config) *Node {
	t.stats.Nodes++
	if depth > t.stats.MaxDepth {
		t.stats.MaxDepth = depth
	}
	n := &Node{BestPrio: t.bestPrio(ruleIdx)}
	if len(ruleIdx) <= cfg.Binth || depth >= cfg.MaxDepth || t.stats.Nodes >= cfg.MaxNodes {
		t.makeLeaf(n, ruleIdx, depth)
		return n
	}
	a := cfg.Policy(ruleIdx, box, depth)
	ok := false
	switch a.Kind {
	case KindCut:
		ok = a.NumCuts >= 2 && t.cut(n, ruleIdx, box, depth, cfg, a)
	case KindSplit:
		ok = t.split(n, ruleIdx, box, depth, cfg, a)
	default:
		t.makeLeaf(n, ruleIdx, depth)
		return n
	}
	if !ok {
		// The policy's action was degenerate (e.g. a cut vetoed by the
		// space factor). Before accepting an oversized leaf, try a simple
		// balanced split so the node still makes progress.
		if at, dim, found := t.fallbackSplit(ruleIdx, box); !found ||
			!t.split(n, ruleIdx, box, depth, cfg, Action{Kind: KindSplit, Dim: dim, SplitAt: at}) {
			t.makeLeaf(n, ruleIdx, depth)
		}
	}
	return n
}

// fallbackSplit finds any endpoint split that separates at least one rule,
// preferring the most balanced among a bounded sample.
func (t *Tree) fallbackSplit(ruleIdx []int32, box []rules.Range) (at uint32, dim int, ok bool) {
	step := 1
	if len(ruleIdx) > 32 {
		step = len(ruleIdx) / 32
	}
	bestCost := len(ruleIdx) + 1
	for d := range box {
		if box[d].Size() < 2 {
			continue
		}
		for i := 0; i < len(ruleIdx); i += step {
			cand := t.rules[ruleIdx[i]].Fields[d].Hi
			if cand < box[d].Lo || cand >= box[d].Hi {
				continue
			}
			l, r := 0, 0
			for _, rj := range ruleIdx {
				f := t.rules[rj].Fields[d]
				if f.Lo <= cand {
					l++
				}
				if f.Hi > cand {
					r++
				}
			}
			if l == len(ruleIdx) && r == len(ruleIdx) {
				continue
			}
			cost := l
			if r > cost {
				cost = r
			}
			if cost < bestCost {
				bestCost, at, dim, ok = cost, cand, d, true
			}
		}
	}
	return at, dim, ok
}

func (t *Tree) makeLeaf(n *Node, ruleIdx []int32, depth int) {
	n.Kind = KindLeaf
	n.Rules = append([]int32(nil), ruleIdx...)
	// Priority order lets the scan stop at the first match.
	sortByPriority(t.rules, n.Rules)
	t.stats.Leaves++
	t.stats.LeafEntries += len(n.Rules)
	t.stats.SumLeafDepth += depth
}

// cut partitions box[dim] into equal-width children; rules replicate into
// every child they overlap. Returns false when the cut is degenerate or
// fails to separate anything (every child would repeat the parent).
func (t *Tree) cut(n *Node, ruleIdx []int32, box []rules.Range, depth int, cfg Config, a Action) bool {
	dim := a.Dim
	span := box[dim].Size()
	num := uint64(a.NumCuts)
	if num > span {
		num = span
	}
	if num < 2 {
		return false
	}
	width := (span + num - 1) / num

	groups := make([][]int32, num)
	useful := false
	total := 0
	for ci := uint64(0); ci < num; ci++ {
		clo := uint64(box[dim].Lo) + ci*width
		chi := clo + width - 1
		if chi > uint64(box[dim].Hi) {
			chi = uint64(box[dim].Hi)
		}
		if clo > uint64(box[dim].Hi) {
			break
		}
		cr := rules.Range{Lo: uint32(clo), Hi: uint32(chi)}
		for _, ri := range ruleIdx {
			if t.rules[ri].Fields[dim].Overlaps(cr) {
				groups[ci] = append(groups[ci], ri)
			}
		}
		total += len(groups[ci])
		if len(groups[ci]) < len(ruleIdx) {
			useful = true
		}
	}
	// HiCuts spfac: wildcard-heavy rules replicate into every child; when
	// the children collectively hold far more rules than the parent, the
	// cut buys separation at an exponential space price — reject it.
	if !useful || total > cfg.SpaceFactor*len(ruleIdx) {
		return false
	}
	n.Kind = KindCut
	n.Dim = int8(dim)
	n.Lo = box[dim].Lo
	n.Width = width
	n.Children = make([]*Node, num)
	for ci := uint64(0); ci < num; ci++ {
		clo := uint64(box[dim].Lo) + ci*width
		if clo > uint64(box[dim].Hi) {
			// Covered by an earlier break above; keep an empty leaf so the
			// child index computed at lookup time is always valid.
			n.Children[ci] = &Node{Kind: KindLeaf, BestPrio: math.MaxInt32}
			t.stats.Nodes++
			t.stats.Leaves++
			continue
		}
		chi := clo + width - 1
		if chi > uint64(box[dim].Hi) {
			chi = uint64(box[dim].Hi)
		}
		child := append([]rules.Range(nil), box...)
		child[dim] = rules.Range{Lo: uint32(clo), Hi: uint32(chi)}
		n.Children[ci] = t.build(groups[ci], child, depth+1, cfg)
	}
	return true
}

// split divides box[dim] at a.SplitAt; rules spanning the split replicate.
// Returns false when the split is degenerate.
func (t *Tree) split(n *Node, ruleIdx []int32, box []rules.Range, depth int, cfg Config, a Action) bool {
	dim := a.Dim
	at := a.SplitAt
	if at < box[dim].Lo || at >= box[dim].Hi {
		return false
	}
	var left, right []int32
	for _, ri := range ruleIdx {
		f := t.rules[ri].Fields[dim]
		if f.Lo <= at {
			left = append(left, ri)
		}
		if f.Hi > at {
			right = append(right, ri)
		}
	}
	if len(left) == len(ruleIdx) && len(right) == len(ruleIdx) {
		return false
	}
	n.Kind = KindSplit
	n.Dim = int8(dim)
	n.SplitAt = at
	lbox := append([]rules.Range(nil), box...)
	lbox[dim].Hi = at
	rbox := append([]rules.Range(nil), box...)
	rbox[dim].Lo = at + 1
	n.Left = t.build(left, lbox, depth+1, cfg)
	n.Right = t.build(right, rbox, depth+1, cfg)
	return true
}

func (t *Tree) bestPrio(ruleIdx []int32) int32 {
	best := int32(math.MaxInt32)
	for _, ri := range ruleIdx {
		if p := t.rules[ri].Priority; p < best {
			best = p
		}
	}
	return best
}

func sortByPriority(rs []rules.Rule, idx []int32) {
	// Insertion sort: leaves are tiny (≤ binth except forced leaves).
	for i := 1; i < len(idx); i++ {
		x := idx[i]
		j := i - 1
		for j >= 0 && rs[idx[j]].Priority > rs[x].Priority {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = x
	}
}

// Stats returns build statistics.
func (t *Tree) Stats() Stats { return t.stats }

// Lookup descends the tree and returns the best matching rule ID, or -1.
func (t *Tree) Lookup(p rules.Packet) int {
	return t.LookupWithBound(p, math.MaxInt32)
}

// LookupWithBound is Lookup with the early-termination bound of §4.
func (t *Tree) LookupWithBound(p rules.Packet, bestPrio int32) int {
	id, _ := t.lookup(p, bestPrio, nil)
	return id
}

// lookup descends to p's leaf and returns the first rule there that beats
// bestPrio, matches p and is not in skip (sorted ascending), with its
// priority; (-1, bestPrio) when there is none.
//
//nm:hotpath
func (t *Tree) lookup(p rules.Packet, bestPrio int32, skip []int) (int, int32) {
	n := t.root
	if n == nil {
		return rules.NoMatch, bestPrio
	}
	for {
		if n.BestPrio >= bestPrio {
			return rules.NoMatch, bestPrio
		}
		switch n.Kind {
		case KindLeaf:
			for _, ri := range n.Rules {
				r := &t.rules[ri]
				if r.Priority >= bestPrio {
					return rules.NoMatch, bestPrio
				}
				if r.Matches(p) && !rules.Skipped(skip, r.ID) {
					return r.ID, r.Priority
				}
			}
			return rules.NoMatch, bestPrio
		case KindCut:
			v := p[n.Dim]
			if v < n.Lo {
				return rules.NoMatch, bestPrio
			}
			ci := uint64(v-n.Lo) / n.Width
			if ci >= uint64(len(n.Children)) {
				return rules.NoMatch, bestPrio
			}
			n = n.Children[ci]
		case KindSplit:
			if p[n.Dim] <= n.SplitAt {
				n = n.Left
			} else {
				n = n.Right
			}
		}
	}
}

// MemoryFootprint models the index size in bytes: 16 bytes per node header,
// 8 bytes per child pointer, and 4 bytes per leaf rule reference — the same
// kind of accounting the paper applies to decision trees (§5.2.1).
func (t *Tree) MemoryFootprint() int {
	total := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		total += 16
		switch n.Kind {
		case KindLeaf:
			total += 4 * len(n.Rules)
		case KindCut:
			total += 8 * len(n.Children)
			for _, c := range n.Children {
				walk(c)
			}
		case KindSplit:
			total += 16
			walk(n.Left)
			walk(n.Right)
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return total
}

// Forest is a set of trees over disjoint rule subsets — CutSplit's
// per-group trees, or NeuroCuts' single tree — queried as one classifier
// under a tightening bound. Trees never change after Build, so a Forest is
// also the frozen form of the classifiers built on it: it implements
// rules.FrozenClassifier by sharing the trees, without copying.
type Forest []*Tree

var _ rules.FrozenClassifier = Forest(nil)

// Len implements rules.FrozenClassifier.
func (f Forest) Len() int {
	n := 0
	for _, t := range f {
		n += len(t.rules)
	}
	return n
}

// MemoryFootprint implements rules.FrozenClassifier as the sum of the
// trees' footprints.
func (f Forest) MemoryFootprint() int {
	total := 0
	for _, t := range f {
		total += t.MemoryFootprint()
	}
	return total
}

// walk probes every tree for one packet, each under the priority of the
// best match so far, and returns the winner and its priority, or
// (-1, bestPrio): the one bounded walk behind Lookup and LookupBatch.
//
//nm:hotpath
func (f Forest) walk(p rules.Packet, bestPrio int32, skip []int) (int, int32) {
	best := rules.NoMatch
	for _, t := range f {
		if id, prio := t.lookup(p, bestPrio, skip); id >= 0 {
			best, bestPrio = id, prio
		}
	}
	return best, bestPrio
}

// Lookup implements rules.FrozenClassifier with one bounded walk.
//
//nm:hotpath
func (f Forest) Lookup(p rules.Packet, bestPrio int32, skip []int) int {
	id, _ := f.walk(p, bestPrio, skip)
	return id
}

// LookupBatch implements rules.FrozenClassifier packet-major: each packet
// runs the same bounded walk as Lookup under its own bound, lowering
// bounds[i] to the priority of each winner it writes into out[i].
//
//nm:hotpath
func (f Forest) LookupBatch(pkts []rules.Packet, bounds []int32, skip []int, out []int) {
	for c, p := range pkts {
		if id, prio := f.walk(p, bounds[c], skip); id >= 0 {
			out[c], bounds[c] = id, prio
		}
	}
}
