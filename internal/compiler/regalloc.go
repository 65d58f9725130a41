package compiler

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/ir"
	"repro/internal/isa"
)

// bitset is a dense set of small integers, used by liveness analysis.
type bitset []uint64

func (s bitset) set(i int)      { s[i/64] |= 1 << (i % 64) }
func (s bitset) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

// orInto ors other into s, reporting whether s changed.
func (s bitset) orInto(other bitset) bool {
	changed := false
	for i := range s {
		if n := s[i] | other[i]; n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// forEach calls f for every member of the set.
func (s bitset) forEach(f func(int)) {
	for w, word := range s {
		for word != 0 {
			f(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// liveSets holds per-block live-in and live-out sets over the function's
// global names: the registers read in some block before any write there.
// Every other register is block-local, so it is live into or out of no
// block and the sets leave it out (Briggs et al., "Practical improvements
// to the construction and destruction of static single assignment form").
// Set members are dense indices into regs.
type liveSets struct {
	regs  []isa.RegID
	words int
	slab  []uint64 // block b's use, def, in and out sets, words each
}

// set returns the k-th of block b's four sets: use, def, in, out.
func (l *liveSets) set(b, k int) bitset {
	i := (4*b + k) * l.words
	return l.slab[i : i+l.words : i+l.words]
}

func (l *liveSets) in(b int) bitset  { return l.set(b, 2) }
func (l *liveSets) out(b int) bitset { return l.set(b, 3) }

// forEach calls f for every register in s, one of l's sets.
func (l *liveSets) forEach(s bitset, f func(isa.RegID)) {
	s.forEach(func(i int) { f(l.regs[i]) })
}

// liveness computes per-block live-in/live-out register sets.
func liveness(f *isa.Func) *liveSets {
	nb := len(f.Blocks)
	// Number the global names densely: idx[r] is r's index in regs, or
	// -1. written[r] is 1 + the last block that wrote r, so a read is
	// upward-exposed unless its block wrote r first.
	idx := make([]int32, f.NumRegs)
	for r := range idx {
		idx[r] = -1
	}
	written := make([]int32, f.NumRegs)
	var regs []isa.RegID
	for b, blk := range f.Blocks {
		for i := range blk.Instrs {
			u1, u2, d := ir.UseDef2(&blk.Instrs[i])
			for _, u := range [2]isa.RegID{u1, u2} {
				if u != isa.NoReg && written[u] != int32(b+1) && idx[u] < 0 {
					idx[u] = int32(len(regs))
					regs = append(regs, u)
				}
			}
			if d != isa.NoReg {
				written[d] = int32(b + 1)
			}
		}
	}

	words := (len(regs) + 63) / 64
	l := &liveSets{regs: regs, slab: make([]uint64, 4*nb*words), words: words}
	for b, blk := range f.Blocks {
		use, def := l.set(b, 0), l.set(b, 1)
		for i := range blk.Instrs {
			u1, u2, d := ir.UseDef2(&blk.Instrs[i])
			for _, u := range [2]isa.RegID{u1, u2} {
				if u != isa.NoReg && idx[u] >= 0 && !def.has(int(idx[u])) {
					use.set(int(idx[u]))
				}
			}
			if d != isa.NoReg && idx[d] >= 0 {
				def.set(int(idx[d]))
			}
		}
	}
	tmp := make(bitset, words)
	for changed := true; changed; {
		changed = false
		for b := nb - 1; b >= 0; b-- {
			in, out := l.in(b), l.out(b)
			for _, s := range f.Blocks[b].Succs {
				if out.orInto(l.in(s)) {
					changed = true
				}
			}
			// in = use ∪ (out − def)
			use, def := l.set(b, 0), l.set(b, 1)
			for i := range tmp {
				tmp[i] = use[i] | (out[i] &^ def[i])
			}
			if in.orInto(tmp) {
				changed = true
			}
		}
	}
	return l
}

// interval is a live interval over the function's linearized
// instruction numbering.
type interval struct {
	reg        isa.RegID
	begin, end int32
}

// intervals returns the live interval of every register f mentions, in
// (begin, reg) order: a total order, since each register has one
// interval. One counting pass over instruction positions sorts them,
// registers taken in ascending order within each position.
func intervals(f *isa.Func) []interval {
	// Linearize and compute positions.
	startOf := make([]int32, len(f.Blocks))
	var pos int32
	for b := range f.Blocks {
		startOf[b] = pos
		pos += int32(len(f.Blocks[b].Instrs))
	}
	live := liveness(f)

	begin := make([]int32, f.NumRegs)
	end := make([]int32, f.NumRegs)
	for r := range begin {
		begin[r] = -1
		end[r] = -1
	}
	extend := func(r isa.RegID, p int32) {
		if begin[r] == -1 || p < begin[r] {
			begin[r] = p
		}
		if p > end[r] {
			end[r] = p
		}
	}
	for b := range f.Blocks {
		s := startOf[b]
		e := s + int32(len(f.Blocks[b].Instrs)) - 1
		live.forEach(live.in(b), func(r isa.RegID) { extend(r, s) })
		live.forEach(live.out(b), func(r isa.RegID) { extend(r, e) })
		for i := range f.Blocks[b].Instrs {
			u1, u2, d := ir.UseDef2(&f.Blocks[b].Instrs[i])
			for _, r := range [3]isa.RegID{u1, u2, d} {
				if r != isa.NoReg {
					extend(r, s+int32(i))
				}
			}
		}
	}

	// at[p] becomes the index in itvs of the first interval beginning at
	// position p.
	at := make([]int32, pos+1)
	n := int32(0)
	for _, b := range begin {
		if b >= 0 {
			at[b+1]++
			n++
		}
	}
	for p := int32(1); p <= pos; p++ {
		at[p] += at[p-1]
	}
	itvs := make([]interval, n)
	for r, b := range begin {
		if b >= 0 {
			itvs[at[b]] = interval{isa.RegID(r), b, end[r]}
			at[b]++
		}
	}
	return itvs
}

// allocate performs linear-scan register allocation for the target's
// register file over f's live intervals itvs, as intervals returns them,
// rewriting virtual registers to physical ones and inserting spill
// loads/stores (via two reserved scratch registers) when the function
// needs more registers than the ISA provides. Register-starved targets like
// x86v therefore execute extra memory traffic — the register-pressure axis
// that separates the paper's x86 machines from x86_64 and IA64.
func allocate(f *isa.Func, target *isa.Desc, itvs []interval) error {
	k := target.IntRegs
	if k < 4 {
		return fmt.Errorf("ISA %s has too few registers (%d)", target.Name, k)
	}
	if f.NumRegs <= k {
		return nil // virtual registers already fit the machine
	}

	// Two registers are reserved as spill scratch; the rest are allocatable.
	alloc := k - 2
	scratch := [2]isa.RegID{isa.RegID(k - 2), isa.RegID(k - 1)}

	// Per virtual register: its physical register, or NoReg when it has
	// none, and its spill slot, or -1 when it is not spilled. No register
	// has both.
	phys := make([]isa.RegID, f.NumRegs)
	spillSlot := make([]int64, f.NumRegs)
	for r := range phys {
		phys[r], spillSlot[r] = isa.NoReg, -1
	}
	free := make([]isa.RegID, 0, alloc)
	for p := alloc - 1; p >= 0; p-- {
		free = append(free, isa.RegID(p))
	}
	// active holds the intervals that own a physical register, sorted by
	// end ascending, so it never outgrows the allocatable registers.
	active := make([]interval, 0, alloc)

	insertActive := func(it interval) {
		i, _ := slices.BinarySearchFunc(active, it.end, func(a interval, end int32) int {
			return cmp.Compare(a.end, end)
		})
		active = slices.Insert(active, i, it)
	}
	spill := func(r isa.RegID) {
		spillSlot[r] = int64(f.NumSlots)
		f.NumSlots++
	}

	for _, it := range itvs {
		// Expire finished intervals: a prefix of active.
		n := 0
		for n < len(active) && active[n].end < it.begin {
			free = append(free, phys[active[n].reg])
			n++
		}
		active = slices.Delete(active, 0, n)
		if len(free) > 0 {
			p := free[len(free)-1]
			free = free[:len(free)-1]
			phys[it.reg] = p
			insertActive(it)
			continue
		}
		// Spill the interval that ends furthest in the future.
		victim := active[len(active)-1]
		if victim.end > it.end {
			phys[it.reg] = phys[victim.reg]
			phys[victim.reg] = isa.NoReg
			spill(victim.reg)
			active = active[:len(active)-1]
			insertActive(it)
		} else {
			spill(it.reg)
		}
	}

	// Rewrite instructions: physical renaming plus spill code. An
	// instruction reads at most two registers, so its spilled operands are
	// each loaded once, into scratch[0] then scratch[1]. The new code of
	// every block goes into one slice, sized first: one instruction per
	// instruction, plus a load per spilled register it reads and a store
	// if it writes one.
	spilled := func(r isa.RegID) bool { return r != isa.NoReg && spillSlot[r] >= 0 }
	size := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			u1, u2, d := ir.UseDef2(&b.Instrs[i])
			size++
			if spilled(u1) {
				size++
			}
			if u2 != u1 && spilled(u2) {
				size++
			}
			if spilled(d) {
				size++
			}
		}
	}
	out := make([]isa.Instr, 0, size)
	var loaded [2]isa.RegID
	nLoaded := 0
	rename := func(r isa.RegID) isa.RegID {
		if p := phys[r]; p != isa.NoReg {
			return p
		}
		slot := spillSlot[r]
		if slot < 0 {
			return r // untouched (should not happen)
		}
		for i := 0; i < nLoaded; i++ {
			if loaded[i] == r {
				return scratch[i]
			}
		}
		s := scratch[nLoaded]
		loaded[nLoaded] = r
		nLoaded++
		out = append(out, isa.Instr{Op: isa.LDL, Dst: s, Imm: slot})
		return s
	}
	for _, b := range f.Blocks {
		start := len(out)
		for _, in := range b.Instrs {
			nLoaded = 0
			mapUses(&in, rename)
			_, _, d := ir.UseDef2(&in)
			storeSlot := int64(-1)
			if d != isa.NoReg {
				if p := phys[d]; p != isa.NoReg {
					in.Dst = p
				} else if storeSlot = spillSlot[d]; storeSlot >= 0 {
					in.Dst = scratch[0]
				}
			}
			out = append(out, in)
			if storeSlot >= 0 {
				out = append(out, isa.Instr{Op: isa.STL, A: scratch[0], Imm: storeSlot})
			}
		}
		b.Instrs = out[start:len(out):len(out)]
	}
	f.NumRegs = k
	return nil
}
