package vm

import (
	"math"

	"repro/internal/isa"
)

// opFellOff is the synthetic opcode of the sentinel slot appended after
// every basic block's instructions. Well-formed code ends each block with a
// terminator and never executes it; malformed code that runs past a block's
// end lands on the sentinel and traps exactly where the pre-predecode
// interpreter did (block b, index len(instrs)).
const opFellOff isa.Opcode = -1

// pins ("predecoded instruction") is one slot of a function's flat
// instruction array. The predecode pass resolves everything resolvable at
// load time — branch targets to flat PCs, global bases and element sizes,
// frame-slot byte offsets, the dense static-site ID — so the dispatch loop
// touches no program structure beyond this array.
type pins struct {
	mem   []int64 // LD/ST: the global's backing storage
	imm   int64   // immediate; MOVF is fused to MOVI with float bits here
	base  uint64  // LD/ST: global byte base; LDL/STL: slot byte offset
	esize uint64  // LD/ST: element size in bytes
	t0    int32   // BR taken / JMP target (flat PC)
	t1    int32   // BR fall-through target (flat PC)
	site  int32   // dense static-site ID (-1 for sentinels)
	block int32   // static block index within the function
	index int32   // static instruction index within the block
	// segLen is the number of instructions from this one to the end of its
	// block, inclusive. At a control transfer the dispatch loop authorizes
	// that many instructions against the budget at once, so the hot path
	// checks the budget per basic block, not per instruction.
	segLen int32
	gi     int32 // LD/ST: global index; CALL: callee function index
	op     isa.Opcode
	dst    isa.RegID
	a, b   isa.RegID
}

// fcode is one function's predecoded form.
type fcode struct {
	name       string
	ins        []pins
	blockStart []int32
	frameBytes uint64 // NumSlots * SlotBytes: callee frames start past this
	nRegs      int    // register file size including the trailing zero register
	nSlots     int    // frame slots (at least 1)
	nParams    int
}

// predecode flattens every function into its fcode. Site IDs are assigned
// densely in (function, block, instruction) order, and the Layout it
// returns records that one numbering for the hooks that index per-site
// state by it.
func predecode(prog *isa.Program, globals [][]int64, globalAddr []uint64) ([]fcode, *Layout) {
	fns := make([]fcode, len(prog.Funcs))
	nSites := 0
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			nSites += len(b.Instrs)
		}
	}
	lay := &Layout{
		prog:      prog,
		sites:     make([]SiteLoc, 0, nSites),
		blockBase: make([]int, len(prog.Funcs)),
	}
	for fi, f := range prog.Funcs {
		lay.blockBase[fi] = lay.numBlocks
		lay.numBlocks += len(f.Blocks)
		fc := &fns[fi]
		fc.name = f.Name
		fc.nRegs = f.NumRegs + 1 // trailing always-zero register
		fc.nSlots = max(f.NumSlots, 1)
		fc.nParams = f.NumParams
		fc.frameBytes = uint64(f.NumSlots) * isa.SlotBytes
		fc.blockStart = make([]int32, len(f.Blocks))
		n := 0
		for _, b := range f.Blocks {
			n += len(b.Instrs) + 1 // +1 for the fell-off sentinel
		}
		fc.ins = make([]pins, 0, n)
		for bi, blk := range f.Blocks {
			fc.blockStart[bi] = int32(len(fc.ins))
			nb := len(blk.Instrs)
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				pi := pins{
					op: in.Op, dst: in.Dst, a: in.A, b: in.B, imm: in.Imm,
					site: int32(len(lay.sites)), block: int32(bi), index: int32(ii),
					segLen: int32(nb - ii),
				}
				lay.sites = append(lay.sites, SiteLoc{Func: fi, Block: bi, Index: ii})
				switch in.Op {
				case isa.MOVF:
					// A float constant is an integer constant holding the
					// IEEE bits; fuse to MOVI here (the program is
					// untouched, so Layout.Instr still reports the MOVF).
					pi.op = isa.MOVI
					pi.imm = int64(math.Float64bits(in.F))
				case isa.LD, isa.ST:
					g := prog.Globals[in.Sym]
					pi.gi = in.Sym
					pi.base = globalAddr[in.Sym]
					pi.esize = uint64(g.ElemBytes())
					pi.mem = globals[in.Sym]
					if in.A == isa.NoReg {
						// Scalar access: read the index from the frame's
						// always-zero register so the hot path needs no
						// NoReg test.
						pi.a = isa.RegID(f.NumRegs)
					}
				case isa.LDL, isa.STL:
					pi.base = uint64(in.Imm) * isa.SlotBytes
				case isa.CALL:
					pi.gi = in.Sym
				}
				fc.ins = append(fc.ins, pi)
			}
			fc.ins = append(fc.ins, pins{
				op: opFellOff, site: -1,
				block: int32(bi), index: int32(nb), segLen: 1,
			})
		}
		// Resolve branch targets now that every block's flat start is known.
		for i := range fc.ins {
			pi := &fc.ins[i]
			switch pi.op {
			case isa.BR:
				succs := f.Blocks[pi.block].Succs
				pi.t0 = fc.blockStart[succs[0]]
				pi.t1 = fc.blockStart[succs[1]]
			case isa.JMP:
				pi.t0 = fc.blockStart[f.Blocks[pi.block].Succs[0]]
			}
		}
	}
	return fns, lay
}
