package vm

import "repro/internal/isa"

// SiteLoc is the static (function, block, index) location of one
// instruction site.
type SiteLoc struct {
	Func, Block, Index int
}

// Layout is the dense static numbering of a program's instruction sites and
// basic blocks, recorded by the predecode pass as it stamps each site ID.
// Site IDs are the numbering of Segment.First and Event.Site: instructions
// are numbered in (function, block, index) order across the whole program.
// Block IDs number blocks the same way ((function, block) order); they are
// the node IDs of the statistical flow graph. Trace consumers read the
// Layout of the VM they run and replace per-instruction map lookups with
// slice indexing.
//
// The Layout keeps per-function and per-block state only: consumers that
// need per-site tables build them from one Walk.
type Layout struct {
	prog      *isa.Program
	blockBase []int // first block ID of each function
	blockSite []int // first site ID of each block, by block ID, then the site count
}

// Layout returns the site and block numbering of the loaded program.
func (vm *VM) Layout() *Layout { return vm.layout }

// NumSites returns the number of static instruction sites.
func (l *Layout) NumSites() int { return l.blockSite[len(l.blockSite)-1] }

// NumBlocks returns the number of basic blocks across all functions.
func (l *Layout) NumBlocks() int { return len(l.blockSite) - 1 }

// Walk calls fn for every site in site-ID order, with its static location
// and instruction.
func (l *Layout) Walk(fn func(site int, loc SiteLoc, in *isa.Instr)) {
	site := 0
	for fi, f := range l.prog.Funcs {
		for bi, b := range f.Blocks {
			for ii := range b.Instrs {
				fn(site, SiteLoc{Func: fi, Block: bi, Index: ii}, &b.Instrs[ii])
				site++
			}
		}
	}
}

// BlockID returns the dense block ID of block `block` in function `fn`.
func (l *Layout) BlockID(fn, block int) int { return l.blockBase[fn] + block }

// Classes returns every site's instruction class, indexed by site ID: the
// table a trace consumer indexes by site instead of classifying per
// instruction.
func (l *Layout) Classes() []isa.Class {
	out := make([]isa.Class, 0, l.NumSites())
	l.Walk(func(_ int, _ SiteLoc, in *isa.Instr) { out = append(out, in.Class()) })
	return out
}
