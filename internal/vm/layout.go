package vm

import (
	"sort"

	"repro/internal/isa"
)

// SiteLoc is the static (function, block, index) location of one
// instruction site.
type SiteLoc struct {
	Func, Block, Index int
}

// Layout is the dense static numbering of a program's instruction sites and
// basic blocks, recorded by the predecode pass as it stamps each site ID.
// Site IDs match Event.Site exactly: instructions are numbered in
// (function, block, index) order across the whole program. Block IDs
// number blocks the same way ((function, block) order); they are the node
// IDs of the statistical flow graph. Hook consumers read the Layout of the
// VM they run and replace per-event map lookups with slice indexing.
//
// The Layout keeps per-function and per-block state only: consumers that
// build per-site tables take every site from one Walk, and Loc derives a
// single site's location from the blocks' first site IDs.
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

// Loc returns the static location of a site ID by binary search of the
// blocks' first site IDs; per-site tables are cheaper built with Walk.
func (l *Layout) Loc(site int) SiteLoc {
	blk := sort.Search(l.NumBlocks(), func(b int) bool { return l.blockSite[b+1] > site })
	fn := sort.Search(len(l.blockBase), func(f int) bool { return l.blockBase[f] > blk }) - 1
	return SiteLoc{Func: fn, Block: blk - l.blockBase[fn], Index: site - l.blockSite[blk]}
}

// Instr returns the instruction at a site ID.
func (l *Layout) Instr(site int) *isa.Instr {
	loc := l.Loc(site)
	return &l.prog.Funcs[loc.Func].Blocks[loc.Block].Instrs[loc.Index]
}

// BlockID returns the dense block ID of block `block` in function `fn`.
func (l *Layout) BlockID(fn, block int) int { return l.blockBase[fn] + block }

// Classes returns every site's instruction class, indexed by site ID: the
// table a hook indexes by Event.Site instead of classifying per event.
func (l *Layout) Classes() []isa.Class {
	out := make([]isa.Class, 0, l.NumSites())
	l.Walk(func(_ int, _ SiteLoc, in *isa.Instr) { out = append(out, in.Class()) })
	return out
}
