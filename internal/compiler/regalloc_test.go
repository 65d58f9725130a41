package compiler_test

// The allocator reference test: the linear-scan register allocator must
// produce exactly the code of the map-based implementation it replaced,
// kept below together with the liveness analysis and the slice-returning
// use/def decoder it ran on. The inputs are every quick-suite workload and
// its synthesized clone, on every ISA and optimization level; x86v's six
// registers make many functions spill, so the spill-code path runs too.
// The kept dense liveness is also the reference for the compiler's sparse
// one.

import (
	"context"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/experiments"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

// program is one compiler input: a quick-suite workload or its clone.
type program struct {
	name  string
	clone bool
	cp    *hlc.CheckedProgram
}

// quickPrograms checks every quick-suite workload and synthesizes its
// clone at the experiments' seed, once per test binary.
var quickPrograms = sync.OnceValues(func() ([]program, error) {
	ctx := context.Background()
	p := pipeline.New(pipeline.Options{Seed: experiments.CloneSeed})
	var progs []program
	for _, w := range experiments.Quick() {
		cp, err := p.Check(ctx, w)
		if err != nil {
			return nil, err
		}
		cl, err := p.Synthesize(ctx, w)
		if err != nil {
			return nil, err
		}
		progs = append(progs, program{w.Name, false, cp}, program{w.Name + " clone", true, cl.Checked})
	}
	return progs, nil
})

func TestAllocateMatchesReference(t *testing.T) {
	progs, err := quickPrograms()
	if err != nil {
		t.Fatal(err)
	}
	spilled := 0
	for _, pr := range progs {
		for _, target := range []*isa.Desc{isa.X86, isa.AMD64, isa.IA64} {
			for _, level := range compiler.Levels {
				got, err := compiler.Compile(pr.cp, target, level)
				if err != nil {
					t.Fatalf("%s %s %v: %v", pr.name, target.Name, level, err)
				}
				want, n, err := referenceCompile(pr.cp, target, level)
				if err != nil {
					t.Fatalf("%s %s %v: reference: %v", pr.name, target.Name, level, err)
				}
				spilled += n
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s %v: code differs from the reference allocator's", pr.name, target.Name, level)
				}
			}
		}
	}
	if spilled == 0 {
		t.Fatal("no function spilled, so the spill path went untested")
	}
}

// TestLivenessMatchesDense checks the compiler's liveness, which tracks
// only registers read before written in some block, against the dense
// reference over all registers: on the virtual-register code of every
// function of every quick-suite program at -O0 and -O2, the live-in and
// live-out sets must hold the same registers.
func TestLivenessMatchesDense(t *testing.T) {
	progs, err := quickPrograms()
	if err != nil {
		t.Fatal(err)
	}
	funcs := 0
	for _, pr := range progs {
		for _, level := range []compiler.OptLevel{compiler.O0, compiler.O2} {
			prog, err := compiler.Compile(pr.cp, &isa.Desc{Name: "virtual", IntRegs: math.MaxInt32}, level)
			if err != nil {
				t.Fatalf("%s %v: %v", pr.name, level, err)
			}
			for _, f := range prog.Funcs {
				funcs++
				in, out := compiler.Liveness(f)
				refIn, refOut := refLiveness(f)
				for b := range f.Blocks {
					wantIn, wantOut := refIn[b].regs(), refOut[b].regs()
					if !slices.Equal(in[b], wantIn) || !slices.Equal(out[b], wantOut) {
						t.Errorf("%s %v %s block %d: live-in %v, live-out %v; want %v, %v",
							pr.name, level, f.Name, b, in[b], out[b], wantIn, wantOut)
						break // the first differing block of each function
					}
				}
			}
		}
	}
	if funcs == 0 {
		t.Fatal("no function checked")
	}
}

// referenceCompile compiles cp as Compile does, but with refAllocate as the
// register allocator. Compiling for a register file too large to need
// allocation yields the optimized virtual-register code; refAllocate maps it
// onto target, and EPIC targets are then scheduled as Compile schedules
// them. It also returns how many functions spilled.
func referenceCompile(cp *hlc.CheckedProgram, target *isa.Desc, level compiler.OptLevel) (*isa.Program, int, error) {
	prog, err := compiler.Compile(cp, &isa.Desc{Name: target.Name, IntRegs: math.MaxInt32}, level)
	if err != nil {
		return nil, 0, err
	}
	prog.ISA = target
	spilled := 0
	for _, f := range prog.Funcs {
		slots := f.NumSlots
		refAllocate(f, target)
		if f.NumSlots > slots {
			spilled++
		}
	}
	if target.EPIC && level >= compiler.O2 {
		for _, f := range prog.Funcs {
			compiler.ScheduleEPIC(f)
		}
	}
	return prog, spilled, nil
}

// refUseDef returns the registers an instruction reads, NoReg omitted, and
// the register it writes.
func refUseDef(in *isa.Instr) (uses []isa.RegID, def isa.RegID) {
	def = isa.NoReg
	add := func(r isa.RegID) {
		if r != isa.NoReg {
			uses = append(uses, r)
		}
	}
	switch in.Op {
	case isa.NOP, isa.JMP:
	case isa.MOVI, isa.MOVF, isa.LDL, isa.CALL:
		def = in.Dst
	case isa.MOV, isa.NEG, isa.NOTB, isa.FNEG, isa.ITOF, isa.FTOI,
		isa.FSQRT, isa.FSIN, isa.FCOS, isa.FABS, isa.LD:
		add(in.A)
		def = in.Dst
	case isa.ST:
		add(in.A)
		add(in.B)
	case isa.STL, isa.BR, isa.RET, isa.PRINTI, isa.PRINTF:
		add(in.A)
	default: // binary ALU/FP
		add(in.A)
		add(in.B)
		def = in.Dst
	}
	return uses, def
}

type refBitset []uint64

func (s refBitset) set(r isa.RegID)      { s[r/64] |= 1 << (r % 64) }
func (s refBitset) has(r isa.RegID) bool { return s[r/64]&(1<<(r%64)) != 0 }

func (s refBitset) orInto(other refBitset) bool {
	changed := false
	for i := range s {
		if n := s[i] | other[i]; n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

func (s refBitset) forEach(f func(isa.RegID)) {
	for w, word := range s {
		for word != 0 {
			f(isa.RegID(w*64 + bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// regs lists the set's registers in ascending order.
func (s refBitset) regs() []isa.RegID {
	var out []isa.RegID
	s.forEach(func(r isa.RegID) { out = append(out, r) })
	return out
}

// refLiveness computes per-block live-in/live-out register sets.
func refLiveness(f *isa.Func) (liveIn, liveOut []refBitset) {
	nb := len(f.Blocks)
	words := (f.NumRegs + 63) / 64
	use := make([]refBitset, nb)
	def := make([]refBitset, nb)
	liveIn = make([]refBitset, nb)
	liveOut = make([]refBitset, nb)
	for b := range f.Blocks {
		use[b], def[b] = make(refBitset, words), make(refBitset, words)
		liveIn[b], liveOut[b] = make(refBitset, words), make(refBitset, words)
		for i := range f.Blocks[b].Instrs {
			uses, d := refUseDef(&f.Blocks[b].Instrs[i])
			for _, u := range uses {
				if !def[b].has(u) {
					use[b].set(u)
				}
			}
			if d != isa.NoReg {
				def[b].set(d)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for b := nb - 1; b >= 0; b-- {
			for _, s := range f.Blocks[b].Succs {
				if liveOut[b].orInto(liveIn[s]) {
					changed = true
				}
			}
			tmp := append(refBitset(nil), liveOut[b]...)
			for i := range tmp {
				tmp[i] = use[b][i] | (tmp[i] &^ def[b][i])
			}
			if liveIn[b].orInto(tmp) {
				changed = true
			}
		}
	}
	return liveIn, liveOut
}

// refAllocate is the map-based linear-scan allocator: intervals by (begin,
// reg), the interval ending last spilled when registers run out, and two
// scratch registers for spilled operands.
func refAllocate(f *isa.Func, target *isa.Desc) {
	k := target.IntRegs
	if f.NumRegs <= k {
		return
	}
	startOf := make([]int, len(f.Blocks))
	pos := 0
	for b := range f.Blocks {
		startOf[b] = pos
		pos += len(f.Blocks[b].Instrs)
	}
	liveIn, liveOut := refLiveness(f)

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
			uses, d := refUseDef(&f.Blocks[b].Instrs[i])
			for _, u := range uses {
				extend(u, s+i)
			}
			if d != isa.NoReg {
				extend(d, s+i)
			}
		}
	}

	type interval struct {
		reg        isa.RegID
		begin, end int
	}
	var itvs []interval
	for r := 0; r < f.NumRegs; r++ {
		if begin[r] >= 0 {
			itvs = append(itvs, interval{isa.RegID(r), begin[r], end[r]})
		}
	}
	sort.Slice(itvs, func(i, j int) bool {
		if itvs[i].begin != itvs[j].begin {
			return itvs[i].begin < itvs[j].begin
		}
		return itvs[i].reg < itvs[j].reg
	})

	alloc := k - 2
	scratch0, scratch1 := isa.RegID(k-2), isa.RegID(k-1)
	phys := make(map[isa.RegID]isa.RegID)
	spillSlot := make(map[isa.RegID]int64)
	var free []isa.RegID
	for p := alloc - 1; p >= 0; p-- {
		free = append(free, isa.RegID(p))
	}
	var active []interval // sorted by end ascending
	insertActive := func(it interval) {
		i := sort.Search(len(active), func(i int) bool { return active[i].end >= it.end })
		active = append(active, interval{})
		copy(active[i+1:], active[i:])
		active[i] = it
	}
	spill := func(r isa.RegID) {
		spillSlot[r] = int64(f.NumSlots)
		f.NumSlots++
	}
	for _, it := range itvs {
		for len(active) > 0 && active[0].end < it.begin {
			free = append(free, phys[active[0].reg])
			active = active[1:]
		}
		if len(free) > 0 {
			p := free[len(free)-1]
			free = free[:len(free)-1]
			phys[it.reg] = p
			insertActive(it)
			continue
		}
		victim := active[len(active)-1]
		if victim.end > it.end {
			phys[it.reg] = phys[victim.reg]
			delete(phys, victim.reg)
			spill(victim.reg)
			active = active[:len(active)-1]
			insertActive(it)
		} else {
			spill(it.reg)
		}
	}

	for _, b := range f.Blocks {
		out := make([]isa.Instr, 0, len(b.Instrs))
		for _, in := range b.Instrs {
			loaded := make(map[isa.RegID]isa.RegID)
			nextScratch := scratch0
			var pre []isa.Instr
			compiler.MapUses(&in, func(r isa.RegID) isa.RegID {
				if p, ok := phys[r]; ok {
					return p
				}
				slot, ok := spillSlot[r]
				if !ok {
					return r
				}
				if s, seen := loaded[r]; seen {
					return s
				}
				s := nextScratch
				nextScratch = scratch1
				pre = append(pre, isa.Instr{Op: isa.LDL, Dst: s, Imm: slot})
				loaded[r] = s
				return s
			})
			out = append(out, pre...)
			_, d := refUseDef(&in)
			var post []isa.Instr
			if d != isa.NoReg {
				if p, ok := phys[d]; ok {
					in.Dst = p
				} else if slot, ok := spillSlot[d]; ok {
					in.Dst = scratch0
					post = append(post, isa.Instr{Op: isa.STL, A: scratch0, Imm: slot})
				}
			}
			out = append(out, in)
			out = append(out, post...)
		}
		b.Instrs = out
	}
	f.NumRegs = k
}
