// Package ir provides the control-flow analyses the compiler and profiler
// share: reverse postorder, dominators, and natural-loop detection.
//
// The compiler's intermediate representation is the isa instruction set in
// virtual-register form (an isa.Func whose register operands are unbounded
// virtual registers); the analyses here therefore operate on plain adjacency
// lists so they apply equally to pre- and post-register-allocation code, and
// to the machine CFGs the profiler walks when it builds the SFGL's loop
// annotation.
package ir

import "repro/internal/isa"

// Preds computes the predecessor lists of a CFG given its successor lists.
func Preds(succs [][]int) [][]int {
	preds := make([][]int, len(succs))
	for b, ss := range succs {
		for _, s := range ss {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// ReversePostorder returns the blocks reachable from entry in reverse
// postorder of a depth-first traversal.
func ReversePostorder(succs [][]int, entry int) []int {
	n := len(succs)
	visited := make([]bool, n)
	var post []int
	// Iterative DFS to avoid stack depth limits on long CFG chains.
	type frame struct {
		b    int
		next int
	}
	stack := []frame{{entry, 0}}
	visited[entry] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(succs[f.b]) {
			s := succs[f.b][f.next]
			f.next++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		post = append(post, f.b)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Dominators computes immediate dominators with the Cooper–Harvey–Kennedy
// iterative algorithm. The result maps each block to its immediate
// dominator; the entry maps to itself, and unreachable blocks map to -1.
func Dominators(succs [][]int, entry int) []int {
	n := len(succs)
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	rpo := ReversePostorder(succs, entry)
	order := make([]int, n) // order[b] = position of b in rpo
	for i := range order {
		order[i] = -1
	}
	for i, b := range rpo {
		order[b] = i
	}
	preds := Preds(succs)
	idom[entry] = entry

	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			newIdom := -1
			for _, p := range preds[b] {
				if idom[p] == -1 {
					continue // not yet processed or unreachable
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether a dominates b under the given idom tree.
func Dominates(idom []int, a, b int) bool {
	for {
		if a == b {
			return true
		}
		if b == idom[b] || idom[b] == -1 {
			return false
		}
		b = idom[b]
	}
}

// Loop describes one natural loop.
type Loop struct {
	Header int
	// Blocks contains every block in the loop body, including the header.
	Blocks []int
	// Parent is the index (within the forest) of the innermost enclosing
	// loop, or -1 for top-level loops.
	Parent int
	// Depth is 1 for top-level loops, 2 for loops nested once, and so on.
	Depth int
}

// Contains reports whether block b is part of the loop body.
func (l *Loop) Contains(b int) bool {
	for _, x := range l.Blocks {
		if x == b {
			return true
		}
	}
	return false
}

// LoopForest is the set of natural loops of a CFG, with nesting resolved.
type LoopForest struct {
	Loops []Loop
	// LoopOf maps each block to the index of its innermost containing
	// loop, or -1.
	LoopOf []int
}

// InnermostLoop returns the innermost loop containing block b, or nil.
func (f *LoopForest) InnermostLoop(b int) *Loop {
	if f.LoopOf[b] == -1 {
		return nil
	}
	return &f.Loops[f.LoopOf[b]]
}

// IsBackEdge reports whether the CFG edge from -> to is a back edge of some
// detected loop (i.e. to is a loop header dominating from).
func (f *LoopForest) IsBackEdge(from, to int) bool {
	for i := range f.Loops {
		l := &f.Loops[i]
		if l.Header == to && l.Contains(from) {
			return true
		}
	}
	return false
}

// FindLoops detects the natural loops of a CFG. Loops sharing a header are
// merged (as in standard loop-nest construction). The returned loops are
// ordered outermost-first within each nest.
func FindLoops(succs [][]int, entry int) *LoopForest {
	n := len(succs)
	idom := Dominators(succs, entry)
	preds := Preds(succs)

	// Collect back edges a -> h (h dominates a) and merge bodies per header.
	bodies := make(map[int]map[int]bool)
	for a := 0; a < n; a++ {
		if idom[a] == -1 && a != entry {
			continue // unreachable
		}
		for _, h := range succs[a] {
			if !Dominates(idom, h, a) {
				continue
			}
			body := bodies[h]
			if body == nil {
				body = map[int]bool{h: true}
				bodies[h] = body
			}
			// Walk predecessors backwards from a until h.
			stack := []int{a}
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if body[b] {
					continue
				}
				body[b] = true
				for _, p := range preds[b] {
					stack = append(stack, p)
				}
			}
		}
	}

	forest := &LoopForest{LoopOf: make([]int, n)}
	for i := range forest.LoopOf {
		forest.LoopOf[i] = -1
	}
	// Deterministic order: headers ascending.
	var headers []int
	for h := range bodies {
		headers = append(headers, h)
	}
	sortInts(headers)
	for _, h := range headers {
		var blocks []int
		for b := range bodies[h] {
			blocks = append(blocks, b)
		}
		sortInts(blocks)
		forest.Loops = append(forest.Loops, Loop{Header: h, Blocks: blocks, Parent: -1})
	}

	// Resolve nesting: loop i is nested in loop j if j != i and j's body
	// contains i's header and j's body is a superset (bigger body).
	for i := range forest.Loops {
		best := -1
		for j := range forest.Loops {
			if i == j {
				continue
			}
			if !forest.Loops[j].Contains(forest.Loops[i].Header) {
				continue
			}
			if len(forest.Loops[j].Blocks) <= len(forest.Loops[i].Blocks) {
				continue
			}
			if best == -1 || len(forest.Loops[j].Blocks) < len(forest.Loops[best].Blocks) {
				best = j
			}
		}
		forest.Loops[i].Parent = best
	}
	for i := range forest.Loops {
		d := 1
		for p := forest.Loops[i].Parent; p != -1; p = forest.Loops[p].Parent {
			d++
		}
		forest.Loops[i].Depth = d
	}
	// LoopOf: innermost (deepest) loop containing each block.
	for i := range forest.Loops {
		for _, b := range forest.Loops[i].Blocks {
			cur := forest.LoopOf[b]
			if cur == -1 || forest.Loops[i].Depth > forest.Loops[cur].Depth {
				forest.LoopOf[b] = i
			}
		}
	}
	return forest
}

func sortInts(a []int) {
	// Insertion sort: loop bodies are small and this avoids importing sort
	// for a hot path used in tests only.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Succs extracts the adjacency list of a compiled function.
func Succs(f *isa.Func) [][]int {
	out := make([][]int, len(f.Blocks))
	for i, b := range f.Blocks {
		out[i] = b.Succs
	}
	return out
}

// UseDef2 returns the registers an instruction reads (u1, u2) and the
// register it writes (def); unused slots are NoReg. CALL passes arguments
// through memory, so it reads no registers. It allocates nothing: the
// compiler calls it per instruction in every pass.
func UseDef2(in *isa.Instr) (u1, u2, def isa.RegID) {
	u1, u2, def = isa.NoReg, isa.NoReg, isa.NoReg
	switch in.Op {
	case isa.NOP, isa.JMP, isa.CALL:
		if in.Op == isa.CALL {
			def = in.Dst
		}
	case isa.MOVI, isa.MOVF, isa.LDL:
		def = in.Dst
	case isa.MOV, isa.NEG, isa.NOTB, isa.FNEG, isa.ITOF, isa.FTOI,
		isa.FSQRT, isa.FSIN, isa.FCOS, isa.FABS, isa.LD:
		u1 = in.A
		def = in.Dst
	case isa.ST:
		u1, u2 = in.A, in.B
	case isa.STL, isa.BR, isa.RET, isa.PRINTI, isa.PRINTF:
		u1 = in.A
	default: // binary ALU/FP
		u1, u2 = in.A, in.B
		def = in.Dst
	}
	return u1, u2, def
}
