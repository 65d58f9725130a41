package vm

import "repro/internal/isa"

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
type Layout struct {
	prog      *isa.Program
	sites     []SiteLoc
	blockBase []int // first block ID of each function
	numBlocks int
}

// Layout returns the site and block numbering of the loaded program.
func (vm *VM) Layout() *Layout { return vm.layout }

// NumSites returns the number of static instruction sites.
func (l *Layout) NumSites() int { return len(l.sites) }

// NumBlocks returns the number of basic blocks across all functions.
func (l *Layout) NumBlocks() int { return l.numBlocks }

// Loc returns the static location of a site ID.
func (l *Layout) Loc(site int) SiteLoc { return l.sites[site] }

// Instr returns the instruction at a site ID.
func (l *Layout) Instr(site int) *isa.Instr {
	loc := l.sites[site]
	return &l.prog.Funcs[loc.Func].Blocks[loc.Block].Instrs[loc.Index]
}

// BlockID returns the dense block ID of block `block` in function `fn`.
func (l *Layout) BlockID(fn, block int) int { return l.blockBase[fn] + block }

// Classes returns every site's instruction class, indexed by site ID: the
// table a hook indexes by Event.Site instead of classifying per event.
func (l *Layout) Classes() []isa.Class {
	out := make([]isa.Class, len(l.sites))
	for s := range out {
		out[s] = l.Instr(s).Class()
	}
	return out
}
