package core

import (
	"math/rand"
	"slices"
	"sort"

	"repro/internal/sfgl"
)

// The skeleton is the intermediate form between the scaled SFGL and HLC
// code: an ordered forest of loops and basic-block occurrences
// (Section III.B.2, "Generate basic blocks and loops").

// item is a skeleton element.
type item interface{ skItem() }

// blockItem is one occurrence of a basic block.
type blockItem struct {
	node *sfgl.Node
	// freq is the per-iteration execution fraction when the block sits
	// inside a loop body (1 = every iteration). The code generator turns
	// sub-unity frequencies into conditional execution.
	freq float64
	// latch marks blocks whose terminating branch is a loop back edge
	// (the for statement models it; no extra branch is generated).
	latch bool
}

// loopItem is one emission of a loop.
type loopItem struct {
	trip int
	body []item
	// freq is the per-iteration entry fraction when nested in an outer
	// loop (entries per outer iteration, capped at 1).
	freq float64
}

func (*blockItem) skItem() {}
func (*loopItem) skItem()  {}

type skeleton struct {
	items     []item
	truncated bool
}

type skeletonBuilder struct {
	g         *sfgl.Graph
	rng       *rand.Rand
	remaining map[int]float64 // node ID -> execution budget left
	itemCount int
	latches   map[int]bool // node IDs whose branch is a back edge
}

// maxSkeletonItems caps the skeleton's size as a safety valve; Report's
// Truncated flag records a clone that hit it.
const maxSkeletonItems = 4096

// buildSkeleton realizes the paper's generation loop: pick a random block
// weighted by remaining execution count; if it is inside a loop, generate
// that whole loop (outermost first, nested loops inside); otherwise chain
// along its hottest successors; decrement counts; repeat until the scaled
// SFGL is exhausted.
func buildSkeleton(g *sfgl.Graph, rng *rand.Rand) *skeleton {
	b := &skeletonBuilder{
		g:         g,
		rng:       rng,
		remaining: make(map[int]float64),
		latches:   make(map[int]bool),
	}
	for _, n := range g.Nodes {
		b.remaining[n.ID] = float64(n.Count)
	}
	for _, l := range g.Loops {
		for _, e := range g.Edges {
			if e.To == l.Header && slices.Contains(l.Nodes, e.From) {
				b.latches[e.From] = true
			}
		}
	}

	sk := &skeleton{}
	for {
		id := b.pickWeighted()
		if id < 0 {
			break
		}
		if b.itemCount >= maxSkeletonItems {
			sk.truncated = true
			break
		}
		n := b.g.Node(id)
		if l := b.outermostLoop(id); l != nil {
			sk.items = append(sk.items, b.emitLoop(l))
			continue
		}
		// Straight-line region: emit the block, then follow the hottest
		// remaining successors (restart when the chain dies out, per the
		// paper).
		budget := b.remaining[id]
		if budget > 16 {
			// Hot block outside any surviving loop: wrap the whole chain
			// in a synthetic counted loop so code size stays bounded
			// while the execution count is preserved.
			trip := int(budget)
			var body []item
			body = append(body, b.emitBlockOnce(n))
			for next := b.hottestSuccessor(id); next != nil; next = b.hottestSuccessor(next.ID) {
				body = append(body, b.emitBlockOnce(next))
			}
			for _, it := range body {
				if bi, ok := it.(*blockItem); ok {
					b.remaining[bi.node.ID] -= float64(trip - 1) // emitBlockOnce took 1
				}
			}
			sk.items = append(sk.items, &loopItem{trip: trip, body: body, freq: 1})
			continue
		}
		sk.items = append(sk.items, b.emitBlockOnce(n))
		for next := b.hottestSuccessor(id); next != nil; next = b.hottestSuccessor(next.ID) {
			if b.itemCount >= maxSkeletonItems {
				sk.truncated = true
				break
			}
			sk.items = append(sk.items, b.emitBlockOnce(next))
		}
	}
	return sk
}

// pickWeighted selects a node ID with probability proportional to its
// remaining count, or -1 when the graph is exhausted.
func (b *skeletonBuilder) pickWeighted() int {
	var total float64
	for _, n := range b.g.Nodes {
		if r := b.remaining[n.ID]; r >= 1 {
			total += r
		}
	}
	if total < 1 {
		return -1
	}
	x := b.rng.Float64() * total
	for _, n := range b.g.Nodes {
		r := b.remaining[n.ID]
		if r < 1 {
			continue
		}
		x -= r
		if x <= 0 {
			return n.ID
		}
	}
	// Floating-point slack: return the last eligible node.
	for i := len(b.g.Nodes) - 1; i >= 0; i-- {
		if b.remaining[b.g.Nodes[i].ID] >= 1 {
			return b.g.Nodes[i].ID
		}
	}
	return -1
}

// outermostLoop returns the top-level loop containing the node, or nil.
func (b *skeletonBuilder) outermostLoop(id int) *sfgl.Loop {
	l := b.g.InnermostLoopOf(id)
	if l == nil {
		return nil
	}
	for l.Parent != -1 {
		l = b.loopByID(l.Parent)
	}
	return l
}

func (b *skeletonBuilder) loopByID(id int) *sfgl.Loop {
	for _, l := range b.g.Loops {
		if l.ID == id {
			return l
		}
	}
	return nil
}

// emitBlockOnce emits one occurrence of a block and decrements its budget.
func (b *skeletonBuilder) emitBlockOnce(n *sfgl.Node) *blockItem {
	b.remaining[n.ID]--
	b.itemCount++
	return &blockItem{node: n, freq: 1, latch: b.latches[n.ID]}
}

// hottestSuccessor picks the successor (outside loops) with the largest
// remaining budget, or nil when the chain ends.
func (b *skeletonBuilder) hottestSuccessor(id int) *sfgl.Node {
	var best *sfgl.Node
	var bestCount float64
	for _, e := range b.g.OutEdges(id) {
		r := b.remaining[e.To]
		if r < 1 {
			continue
		}
		if b.g.InnermostLoopOf(e.To) != nil {
			continue // loops are generated as wholes, not via chains
		}
		if r > bestCount {
			bestCount = r
			best = b.g.Node(e.To)
		}
	}
	return best
}

// emitLoop generates one entry of a loop — the loop's own blocks in block
// order with nested loops inserted at the position of their headers — and
// decrements every contained block's budget by its per-entry share.
func (b *skeletonBuilder) emitLoop(l *sfgl.Loop) *loopItem {
	it := b.emitLoopNested(l, 1)
	entries := float64(l.Entries)
	if entries < 1 {
		entries = 1
	}
	for _, id := range l.Nodes {
		if n := b.g.Node(id); n != nil {
			b.remaining[id] -= float64(n.Count) / entries
		}
	}
	return it
}

// emitLoopNested builds a loop's structural body without touching budgets
// (emitLoop accounts for the entire nest in one step).
func (b *skeletonBuilder) emitLoopNested(l *sfgl.Loop, freq float64) *loopItem {
	trip := int(l.AvgTrip() + 0.5)
	if trip < 1 {
		trip = 1
	}
	it := &loopItem{trip: trip, freq: freq}

	childOf := make(map[int]*sfgl.Loop)
	covered := make(map[int]bool)
	for _, c := range b.g.Loops {
		if c.Parent != l.ID {
			continue
		}
		childOf[c.Header] = c
		for _, id := range c.Nodes {
			covered[id] = true
		}
	}
	own := make([]int, 0, len(l.Nodes))
	for _, id := range l.Nodes {
		if !covered[id] {
			own = append(own, id)
		}
	}
	headers := make([]int, 0, len(childOf))
	for h := range childOf {
		headers = append(headers, h)
	}
	merged := append(append([]int(nil), own...), headers...)
	sort.Ints(merged)

	iters := float64(l.Iterations)
	if iters < 1 {
		iters = 1
	}
	b.itemCount++
	for _, id := range merged {
		if c, ok := childOf[id]; ok {
			entriesPerIter := float64(c.Entries) / iters
			if entriesPerIter > 1 {
				entriesPerIter = 1
			}
			it.body = append(it.body, b.emitLoopNested(c, entriesPerIter))
			continue
		}
		n := b.g.Node(id)
		if n == nil {
			continue // dropped during scale-down
		}
		perIter := float64(n.Count) / iters
		if perIter > 1 {
			perIter = 1
		}
		it.body = append(it.body, &blockItem{node: n, freq: perIter, latch: b.latches[id]})
		b.itemCount++
	}
	return it
}
