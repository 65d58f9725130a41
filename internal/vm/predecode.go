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
// instruction array: only what the dispatch loop executes, with branch
// targets resolved to flat PCs and the dense static-site ID stamped. It
// holds no pointers; a global's storage comes from the VM by gi, and a
// trap's location from fcode.blockStart.
type pins struct {
	imm  int64 // immediate; MOVF is fused to MOVI with float bits here
	t0   int32 // BR taken / JMP target (flat PC)
	t1   int32 // BR fall-through target (flat PC)
	site int32 // dense static-site ID (-1 for sentinels)
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
	ins        []pins
	blockStart []int32 // flat PC of each block's first instruction
	frameBytes uint64  // NumSlots * SlotBytes: callee frames start past this
	nRegs      int     // register file size including the trailing zero register
	nSlots     int     // frame slots (at least 1)
	nParams    int
}

// predecode flattens every function into its fcode. Site IDs are assigned
// densely in (function, block, instruction) order, and the Layout it
// returns records that one numbering for the trace consumers that index
// per-site state by it.
func predecode(prog *isa.Program) ([]fcode, *Layout) {
	fns := make([]fcode, len(prog.Funcs))
	nBlocks := 0
	for _, f := range prog.Funcs {
		nBlocks += len(f.Blocks)
	}
	lay := &Layout{
		prog:      prog,
		blockBase: make([]int, len(prog.Funcs)),
		blockSite: make([]int, 0, nBlocks+1),
	}
	site := 0
	for fi, f := range prog.Funcs {
		lay.blockBase[fi] = len(lay.blockSite)
		fc := &fns[fi]
		fc.nRegs = f.NumRegs + 1 // trailing always-zero register
		fc.nSlots = max(f.NumSlots, 1)
		fc.nParams = f.NumParams
		fc.frameBytes = uint64(f.NumSlots) * isa.SlotBytes
		fc.blockStart = make([]int32, len(f.Blocks))
		n := 0
		for bi, b := range f.Blocks {
			fc.blockStart[bi] = int32(n)
			n += len(b.Instrs) + 1 // +1 for the fell-off sentinel
		}
		fc.ins = make([]pins, 0, n)
		for _, blk := range f.Blocks {
			lay.blockSite = append(lay.blockSite, site)
			nb := len(blk.Instrs)
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				pi := pins{
					op: in.Op, dst: in.Dst, a: in.A, b: in.B, imm: in.Imm,
					site: int32(site), segLen: int32(nb - ii),
				}
				site++
				switch in.Op {
				case isa.MOVF:
					// A float constant is an integer constant holding the
					// IEEE bits; fuse to MOVI here (the program is
					// untouched, so Layout.Walk still reports the MOVF).
					pi.op = isa.MOVI
					pi.imm = int64(math.Float64bits(in.F))
				case isa.LD, isa.ST:
					pi.gi = in.Sym
					if in.A == isa.NoReg {
						// Scalar access: read the index from the frame's
						// always-zero register so the hot path needs no
						// NoReg test.
						pi.a = isa.RegID(f.NumRegs)
					}
				case isa.CALL:
					pi.gi = in.Sym
				case isa.BR:
					pi.t0 = fc.blockStart[blk.Succs[0]]
					pi.t1 = fc.blockStart[blk.Succs[1]]
				case isa.JMP:
					pi.t0 = fc.blockStart[blk.Succs[0]]
				}
				fc.ins = append(fc.ins, pi)
			}
			fc.ins = append(fc.ins, pins{op: opFellOff, site: -1, segLen: 1})
		}
	}
	lay.blockSite = append(lay.blockSite, site)
	return fns, lay
}
