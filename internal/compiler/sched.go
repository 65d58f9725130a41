package compiler

import (
	"sort"

	"repro/internal/ir"
	"repro/internal/isa"
)

// scheduleEPIC performs static list scheduling of each basic block into
// issue bundles for EPIC targets (the IA64 axis of the paper's Fig. 11:
// an in-order EPIC machine only extracts instruction-level parallelism the
// compiler exposes, which is why Itanium gains ~25% at O2/O3 over O1 while
// out-of-order machines barely care).
//
// Bundles hold up to three mutually independent instructions with at most
// two memory operations; the block terminator always issues alone, last.
func scheduleEPIC(f *isa.Func) {
	for _, b := range f.Blocks {
		scheduleBlock(b)
	}
}

const (
	bundleWidth  = 3
	bundleMemOps = 2
)

func isMemOp(op isa.Opcode) bool {
	switch op {
	case isa.LD, isa.ST, isa.LDL, isa.STL:
		return true
	}
	return false
}

func isStoreOp(op isa.Opcode) bool { return op == isa.ST || op == isa.STL }

func isBarrierOp(op isa.Opcode) bool {
	switch op {
	case isa.CALL, isa.PRINTI, isa.PRINTF:
		return true
	}
	return false
}

func scheduleBlock(b *isa.Block) {
	n := len(b.Instrs)
	if n == 0 {
		b.Bundle = nil
		return
	}
	adj := make([][]int, n)
	indeg := make([]int, n)
	addEdge := func(i, j int) {
		adj[i] = append(adj[i], j)
		indeg[j]++
	}
	// Unused use slots hold NoReg, which never equals a def tested below.
	usesOf := make([][2]isa.RegID, n)
	defOf := make([]isa.RegID, n)
	for i := range b.Instrs {
		usesOf[i][0], usesOf[i][1], defOf[i] = ir.UseDef2(&b.Instrs[i])
	}
	for j := 1; j < n; j++ {
		oj := b.Instrs[j].Op
		for i := 0; i < j; i++ {
			oi := b.Instrs[i].Op
			dep := false
			if d := defOf[i]; d != isa.NoReg {
				if d == defOf[j] {
					dep = true // WAW
				}
				for _, u := range usesOf[j] {
					if u == d {
						dep = true // RAW
					}
				}
			}
			if d := defOf[j]; d != isa.NoReg && !dep {
				for _, u := range usesOf[i] {
					if u == d {
						dep = true // WAR
					}
				}
			}
			if !dep && (isStoreOp(oi) && isMemOp(oj) || isMemOp(oi) && isStoreOp(oj)) {
				dep = true // conservative memory ordering
			}
			if !dep && (isBarrierOp(oi) || isBarrierOp(oj)) {
				dep = true
			}
			if !dep && j == n-1 {
				dep = true // terminator issues after everything
			}
			if dep {
				addEdge(i, j)
			}
		}
	}

	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]isa.Instr, 0, n)
	bundles := make([]int, 0, n)
	cycle := 0
	remaining := n
	for remaining > 0 {
		memUsed := 0
		var take []int
		for _, i := range ready {
			if len(take) == bundleWidth {
				break
			}
			op := b.Instrs[i].Op
			if isMemOp(op) && memUsed == bundleMemOps {
				continue
			}
			take = append(take, i)
			if isMemOp(op) {
				memUsed++
			}
		}
		if len(take) == 0 {
			// Cannot happen in a valid DAG, but never wedge.
			take = append(take, ready[0])
		}
		taken := make(map[int]bool, len(take))
		for _, i := range take {
			taken[i] = true
			order = append(order, b.Instrs[i])
			bundles = append(bundles, cycle)
		}
		var next []int
		for _, i := range ready {
			if !taken[i] {
				next = append(next, i)
			}
		}
		for _, i := range take {
			for _, s := range adj[i] {
				indeg[s]--
				if indeg[s] == 0 {
					next = append(next, s)
				}
			}
		}
		sort.Ints(next)
		ready = next
		remaining -= len(take)
		cycle++
	}
	b.Instrs = order
	b.Bundle = bundles
}
