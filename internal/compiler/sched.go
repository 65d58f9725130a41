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
	d := deps{lastDef: make([]int32, f.NumRegs), readers: make([][]int32, f.NumRegs)}
	for r := range d.lastDef {
		d.lastDef[r] = -1
	}
	for _, b := range f.Blocks {
		scheduleBlock(b, &d)
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

// deps is scheduleBlock's per-register state, by register: the block's
// last instruction that wrote it (-1 if none), and the instructions that
// read it since. scheduleBlock leaves it as it found it.
type deps struct {
	lastDef []int32
	readers [][]int32
}

// scheduleBlock list-schedules one block. Instruction j depends on an
// earlier i when one writes a register the other reads or writes, when
// both touch memory and one stores, when either is a barrier, and when j
// is the terminator. The graph is built in one pass with only the edges
// that no path of others implies: j depends on the last write of each
// register it reads or writes, on the reads since then of the register it
// writes, on the last store if it touches memory, on the memory operations
// since (and including) the last store if it stores, on the last barrier,
// and on everything since (and including) the last barrier if it is one.
// The scheduler makes an instruction ready only once all of its
// predecessors have issued, in earlier cycles, so a path orders two
// instructions as an edge would: the schedule is the one the full
// pairwise dependence graph gives.
func scheduleBlock(b *isa.Block, d *deps) {
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
	// memOps holds the last store and the memory operations since, and
	// sinceBarrier the last barrier and the instructions since; before
	// the first store or barrier they hold everything from block start.
	lastStore, lastBarrier := -1, -1
	var memOps, sinceBarrier []int
	for j := 0; j < n-1; j++ {
		in := &b.Instrs[j]
		u1, u2, def := ir.UseDef2(in)
		for _, u := range [2]isa.RegID{u1, u2} {
			if u != isa.NoReg && d.lastDef[u] >= 0 {
				addEdge(int(d.lastDef[u]), j) // RAW
			}
		}
		if def != isa.NoReg {
			if d.lastDef[def] >= 0 {
				addEdge(int(d.lastDef[def]), j) // WAW
			}
			for _, i := range d.readers[def] {
				addEdge(int(i), j) // WAR
			}
		}
		if op := in.Op; isStoreOp(op) {
			for _, i := range memOps {
				addEdge(i, j)
			}
			lastStore, memOps = j, append(memOps[:0], j)
		} else if isMemOp(op) {
			if lastStore >= 0 {
				addEdge(lastStore, j)
			}
			memOps = append(memOps, j)
		}
		if isBarrierOp(in.Op) {
			for _, i := range sinceBarrier {
				addEdge(i, j)
			}
			lastBarrier, sinceBarrier = j, append(sinceBarrier[:0], j)
		} else {
			if lastBarrier >= 0 {
				addEdge(lastBarrier, j)
			}
			sinceBarrier = append(sinceBarrier, j)
		}
		for _, u := range [2]isa.RegID{u1, u2} {
			if u != isa.NoReg {
				d.readers[u] = append(d.readers[u], int32(j))
			}
		}
		if def != isa.NoReg {
			d.lastDef[def] = int32(j)
			d.readers[def] = d.readers[def][:0]
		}
	}
	for i := 0; i < n-1; i++ {
		addEdge(i, n-1) // the terminator issues after everything
	}
	for j := 0; j < n-1; j++ {
		u1, u2, def := ir.UseDef2(&b.Instrs[j])
		for _, r := range [3]isa.RegID{u1, u2, def} {
			if r != isa.NoReg {
				d.lastDef[r], d.readers[r] = -1, d.readers[r][:0]
			}
		}
	}

	// ready and next swap each cycle; an instruction is ready at most
	// once, so n entries hold either. taken marks issued instructions.
	ready, next := make([]int, 0, n), make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	taken := make([]bool, n)
	var takeBuf [bundleWidth]int
	order := make([]isa.Instr, 0, n)
	bundles := make([]int, 0, n)
	cycle := 0
	remaining := n
	for remaining > 0 {
		memUsed := 0
		take := takeBuf[:0]
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
		for _, i := range take {
			taken[i] = true
			order = append(order, b.Instrs[i])
			bundles = append(bundles, cycle)
		}
		next = next[:0]
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
		ready, next = next, ready
		remaining -= len(take)
		cycle++
	}
	b.Instrs = order
	b.Bundle = bundles
}
