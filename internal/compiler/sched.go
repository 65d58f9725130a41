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

// deps is scheduleBlock's state, kept across a function's blocks. By
// register: the block's last instruction that wrote it (-1 if none), and
// the instructions that read it since; scheduleBlock leaves both as it
// found them. The rest holds one block's dependence graph in flat arrays:
// preds lists every instruction's predecessors in instruction order,
// indeg[j] of them for instruction j, and succs[succAt[i]:succAt[i+1]]
// are instruction i's successors.
type deps struct {
	lastDef []int32
	readers [][]int32

	preds, indeg, succs, succAt []int32
}

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are stale.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
	preds, indeg := d.preds[:0], resize(d.indeg, n)
	// memOps holds the last store and the memory operations since, and
	// sinceBarrier the last barrier and the instructions since; before
	// the first store or barrier they hold everything from block start.
	lastStore, lastBarrier := -1, -1
	var memOps, sinceBarrier []int
	for j := 0; j < n-1; j++ {
		first := len(preds)
		in := &b.Instrs[j]
		u1, u2, def := ir.UseDef2(in)
		for _, u := range [2]isa.RegID{u1, u2} {
			if u != isa.NoReg && d.lastDef[u] >= 0 {
				preds = append(preds, d.lastDef[u]) // RAW
			}
		}
		if def != isa.NoReg {
			if d.lastDef[def] >= 0 {
				preds = append(preds, d.lastDef[def]) // WAW
			}
			preds = append(preds, d.readers[def]...) // WAR
		}
		if op := in.Op; isStoreOp(op) {
			for _, i := range memOps {
				preds = append(preds, int32(i))
			}
			lastStore, memOps = j, append(memOps[:0], j)
		} else if isMemOp(op) {
			if lastStore >= 0 {
				preds = append(preds, int32(lastStore))
			}
			memOps = append(memOps, j)
		}
		if isBarrierOp(in.Op) {
			for _, i := range sinceBarrier {
				preds = append(preds, int32(i))
			}
			lastBarrier, sinceBarrier = j, append(sinceBarrier[:0], j)
		} else {
			if lastBarrier >= 0 {
				preds = append(preds, int32(lastBarrier))
			}
			sinceBarrier = append(sinceBarrier, j)
		}
		indeg[j] = int32(len(preds) - first)
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
		preds = append(preds, int32(i)) // the terminator issues after everything
	}
	indeg[n-1] = int32(n - 1)
	for j := 0; j < n-1; j++ {
		u1, u2, def := ir.UseDef2(&b.Instrs[j])
		for _, r := range [3]isa.RegID{u1, u2, def} {
			if r != isa.NoReg {
				d.lastDef[r], d.readers[r] = -1, d.readers[r][:0]
			}
		}
	}

	// Turn the predecessor lists around: count each instruction's
	// successors two slots up, sum, then fill with succAt[i+1] as i's
	// cursor, which leaves it at the end of i's list.
	succAt, succs := resize(d.succAt, n+2), resize(d.succs, len(preds))
	clear(succAt)
	for _, i := range preds {
		succAt[i+2]++
	}
	for i := 2; i < n+2; i++ {
		succAt[i] += succAt[i-1]
	}
	rest := preds
	for j := 0; j < n; j++ {
		for _, i := range rest[:indeg[j]] {
			succs[succAt[i+1]] = int32(j)
			succAt[i+1]++
		}
		rest = rest[indeg[j]:]
	}
	d.preds, d.indeg, d.succs, d.succAt = preds, indeg, succs, succAt

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
			for _, s := range succs[succAt[i]:succAt[i+1]] {
				indeg[s]--
				if indeg[s] == 0 {
					next = append(next, int(s))
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
