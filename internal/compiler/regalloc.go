package compiler

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/ir"
	"repro/internal/isa"
)

// bitset is a dense register set used by liveness analysis.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (s bitset) set(r isa.RegID)      { s[r/64] |= 1 << (r % 64) }
func (s bitset) clear(r isa.RegID)    { s[r/64] &^= 1 << (r % 64) }
func (s bitset) has(r isa.RegID) bool { return s[r/64]&(1<<(r%64)) != 0 }

func (s bitset) clone() bitset {
	out := make(bitset, len(s))
	copy(out, s)
	return out
}

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

// forEach calls f for every register in the set.
func (s bitset) forEach(f func(isa.RegID)) {
	for w, word := range s {
		for word != 0 {
			b := word & -word
			f(isa.RegID(w*64 + trailingZeros(word)))
			word ^= b
		}
	}
}

func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// liveness computes per-block live-in/live-out register sets.
func liveness(f *isa.Func) (liveIn, liveOut []bitset) {
	nb := len(f.Blocks)
	n := f.NumRegs
	use := make([]bitset, nb)
	def := make([]bitset, nb)
	liveIn = make([]bitset, nb)
	liveOut = make([]bitset, nb)
	for b := range f.Blocks {
		use[b], def[b] = newBitset(n), newBitset(n)
		liveIn[b], liveOut[b] = newBitset(n), newBitset(n)
		for i := range f.Blocks[b].Instrs {
			u1, u2, d := ir.UseDef2(&f.Blocks[b].Instrs[i])
			for _, u := range [2]isa.RegID{u1, u2} {
				if u != isa.NoReg && !def[b].has(u) {
					use[b].set(u)
				}
			}
			if d != isa.NoReg {
				def[b].set(d)
			}
		}
	}
	tmp := newBitset(n)
	for changed := true; changed; {
		changed = false
		for b := nb - 1; b >= 0; b-- {
			for _, s := range f.Blocks[b].Succs {
				if liveOut[b].orInto(liveIn[s]) {
					changed = true
				}
			}
			// liveIn = use ∪ (liveOut − def)
			for i := range tmp {
				tmp[i] = use[b][i] | (liveOut[b][i] &^ def[b][i])
			}
			if liveIn[b].orInto(tmp) {
				changed = true
			}
		}
	}
	return liveIn, liveOut
}

// interval is a live interval over the linearized instruction numbering.
type interval struct {
	reg        isa.RegID
	begin, end int
}

// allocate performs linear-scan register allocation for the target's
// register file, rewriting virtual registers to physical ones and inserting
// spill loads/stores (via two reserved scratch registers) when the function
// needs more registers than the ISA provides. Register-starved targets like
// x86v therefore execute extra memory traffic — the register-pressure axis
// that separates the paper's x86 machines from x86_64 and IA64.
func allocate(f *isa.Func, target *isa.Desc) error {
	k := target.IntRegs
	if k < 4 {
		return fmt.Errorf("ISA %s has too few registers (%d)", target.Name, k)
	}
	if f.NumRegs <= k {
		return nil // virtual registers already fit the machine
	}

	// Linearize and compute positions.
	startOf := make([]int, len(f.Blocks))
	pos := 0
	for b := range f.Blocks {
		startOf[b] = pos
		pos += len(f.Blocks[b].Instrs)
	}
	liveIn, liveOut := liveness(f)

	begin := make([]int, f.NumRegs)
	end := make([]int, f.NumRegs)
	for r := range begin {
		begin[r] = -1
		end[r] = -1
	}
	extend := func(r isa.RegID, p int) {
		if begin[r] == -1 || p < begin[r] {
			begin[r] = p
		}
		if p > end[r] {
			end[r] = p
		}
	}
	for b := range f.Blocks {
		s := startOf[b]
		e := s + len(f.Blocks[b].Instrs) - 1
		liveIn[b].forEach(func(r isa.RegID) { extend(r, s) })
		liveOut[b].forEach(func(r isa.RegID) { extend(r, e) })
		for i := range f.Blocks[b].Instrs {
			u1, u2, d := ir.UseDef2(&f.Blocks[b].Instrs[i])
			for _, r := range [3]isa.RegID{u1, u2, d} {
				if r != isa.NoReg {
					extend(r, s+i)
				}
			}
		}
	}

	itvs := make([]interval, 0, f.NumRegs)
	for r := 0; r < f.NumRegs; r++ {
		if begin[r] >= 0 {
			itvs = append(itvs, interval{isa.RegID(r), begin[r], end[r]})
		}
	}
	// (begin, reg) is a total order, since each register has one interval.
	slices.SortFunc(itvs, func(a, b interval) int {
		if a.begin != b.begin {
			return cmp.Compare(a.begin, b.begin)
		}
		return cmp.Compare(a.reg, b.reg)
	})

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
		i, _ := slices.BinarySearchFunc(active, it.end, func(a interval, end int) int {
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
	// each loaded once, into scratch[0] then scratch[1].
	for _, b := range f.Blocks {
		out := make([]isa.Instr, 0, len(b.Instrs))
		for _, in := range b.Instrs {
			var loaded [2]isa.RegID
			nLoaded := 0
			mapUses(&in, func(r isa.RegID) isa.RegID {
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
			})
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
		b.Instrs = out
	}
	f.NumRegs = k
	return nil
}
