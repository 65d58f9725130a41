package ir

import (
	"reflect"
	"testing"

	"repro/internal/isa"
)

// diamond: 0 -> 1,2 ; 1 -> 3 ; 2 -> 3
func diamond() [][]int {
	return [][]int{{1, 2}, {3}, {3}, {}}
}

// simple loop: 0 -> 1 ; 1 -> 2,3 ; 2 -> 1 ; 3 -> {}
func simpleLoop() [][]int {
	return [][]int{{1}, {2, 3}, {1}, {}}
}

// nested loops:
// 0 -> 1 ; 1(outer hdr) -> 2 ; 2(inner hdr) -> 3,4 ; 3 -> 2 ; 4 -> 1,5 ; 5 -> {}
func nestedLoops() [][]int {
	return [][]int{{1}, {2}, {3, 4}, {2}, {1, 5}, {}}
}

func TestReversePostorder(t *testing.T) {
	rpo := ReversePostorder(diamond(), 0)
	if len(rpo) != 4 || rpo[0] != 0 || rpo[3] != 3 {
		t.Fatalf("rpo = %v, want 0 first and 3 last", rpo)
	}
	pos := make(map[int]int)
	for i, b := range rpo {
		pos[b] = i
	}
	if pos[1] > pos[3] || pos[2] > pos[3] {
		t.Errorf("rpo %v does not place 3 after both branches", rpo)
	}
}

func TestReversePostorderSkipsUnreachable(t *testing.T) {
	succs := [][]int{{1}, {}, {1}} // block 2 unreachable
	rpo := ReversePostorder(succs, 0)
	if len(rpo) != 2 {
		t.Fatalf("rpo = %v, want 2 reachable blocks", rpo)
	}
}

func TestDominatorsDiamond(t *testing.T) {
	idom := Dominators(diamond(), 0)
	want := []int{0, 0, 0, 0}
	for i := range want {
		if idom[i] != want[i] {
			t.Errorf("idom[%d] = %d, want %d", i, idom[i], want[i])
		}
	}
}

func TestDominatorsLoop(t *testing.T) {
	idom := Dominators(simpleLoop(), 0)
	if idom[1] != 0 || idom[2] != 1 || idom[3] != 1 {
		t.Errorf("idom = %v", idom)
	}
	if !Dominates(idom, 1, 2) {
		t.Error("1 should dominate 2")
	}
	if Dominates(idom, 2, 3) {
		t.Error("2 should not dominate 3")
	}
	if !Dominates(idom, 0, 3) {
		t.Error("entry should dominate everything")
	}
}

func TestFindLoopsSimple(t *testing.T) {
	f := FindLoops(simpleLoop(), 0)
	if len(f.Loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(f.Loops))
	}
	l := f.Loops[0]
	if l.Header != 1 {
		t.Errorf("header = %d, want 1", l.Header)
	}
	if !reflect.DeepEqual(l.Blocks, []int{1, 2}) {
		t.Errorf("loop blocks = %v, want [1 2]", l.Blocks)
	}
	if l.Depth != 1 || l.Parent != -1 {
		t.Errorf("depth=%d parent=%d, want 1/-1", l.Depth, l.Parent)
	}
	if !reflect.DeepEqual(f.LoopOf, []int{-1, 0, 0, -1}) {
		t.Errorf("LoopOf = %v, want [-1 0 0 -1]", f.LoopOf)
	}
	if !reflect.DeepEqual(f.Idom, Dominators(simpleLoop(), 0)) {
		t.Errorf("Idom = %v, want the dominator tree", f.Idom)
	}
}

func TestFindLoopsNested(t *testing.T) {
	f := FindLoops(nestedLoops(), 0)
	if len(f.Loops) != 2 {
		t.Fatalf("found %d loops, want 2: %+v", len(f.Loops), f.Loops)
	}
	// Loops come ordered by header: the outer loop (header 1), then the
	// inner one (header 2).
	want := []Loop{
		{Header: 1, Blocks: []int{1, 2, 3, 4}, Parent: -1, Depth: 1},
		{Header: 2, Blocks: []int{2, 3}, Parent: 0, Depth: 2},
	}
	if !reflect.DeepEqual(f.Loops, want) {
		t.Errorf("loops = %+v, want %+v", f.Loops, want)
	}
	// Blocks 2 and 3 are innermost in the inner loop; block 4 only in the
	// outer; blocks 0 and 5 in none.
	if !reflect.DeepEqual(f.LoopOf, []int{-1, 0, 1, 1, 0, -1}) {
		t.Errorf("LoopOf = %v, want [-1 0 1 1 0 -1]", f.LoopOf)
	}
}

func TestFindLoopsSelfLoop(t *testing.T) {
	succs := [][]int{{1}, {1, 2}, {}}
	f := FindLoops(succs, 0)
	if len(f.Loops) != 1 || f.Loops[0].Header != 1 || len(f.Loops[0].Blocks) != 1 {
		t.Fatalf("self loop not detected: %+v", f.Loops)
	}
}

func TestFindLoopsIrreducibleIgnored(t *testing.T) {
	// 0 -> 1,2 ; 1 -> 2 ; 2 -> 1 : the 1<->2 cycle has no dominating header,
	// so no natural loop should be reported.
	succs := [][]int{{1, 2}, {2}, {1}}
	f := FindLoops(succs, 0)
	if len(f.Loops) != 0 {
		t.Fatalf("irreducible cycle misdetected as natural loop: %+v", f.Loops)
	}
}

func TestUseDef(t *testing.T) {
	cases := []struct {
		in   isa.Instr
		uses int
		def  isa.RegID
	}{
		{isa.Instr{Op: isa.ADD, Dst: 2, A: 0, B: 1}, 2, 2},
		{isa.Instr{Op: isa.MOVI, Dst: 3, Imm: 7}, 0, 3},
		{isa.Instr{Op: isa.LD, Dst: 1, A: 0, Sym: 0}, 1, 1},
		{isa.Instr{Op: isa.LD, Dst: 1, A: isa.NoReg, Sym: 0}, 0, 1},
		{isa.Instr{Op: isa.ST, A: 0, B: 1, Sym: 0}, 2, isa.NoReg},
		{isa.Instr{Op: isa.BR, A: 4}, 1, isa.NoReg},
		{isa.Instr{Op: isa.RET, A: isa.NoReg}, 0, isa.NoReg},
		{isa.Instr{Op: isa.CALL, Dst: 5, Imm: 0}, 0, 5},
		{isa.Instr{Op: isa.STL, A: 7, Imm: 0}, 1, isa.NoReg},
		{isa.Instr{Op: isa.LDL, Dst: 7, Imm: 0}, 0, 7},
		{isa.Instr{Op: isa.FSQRT, Dst: 1, A: 0}, 1, 1},
		{isa.Instr{Op: isa.PRINTI, A: 0}, 1, isa.NoReg},
	}
	for _, tc := range cases {
		u1, u2, def := UseDef2(&tc.in)
		uses := 0
		for _, u := range []isa.RegID{u1, u2} {
			if u != isa.NoReg {
				uses++
			}
		}
		if uses != tc.uses || def != tc.def {
			t.Errorf("%v: uses=%v,%v def=%v, want %d uses def=%d", tc.in, u1, u2, def, tc.uses, tc.def)
		}
	}
}

func TestPreds(t *testing.T) {
	preds := Preds(diamond())
	if len(preds[3]) != 2 {
		t.Errorf("preds[3] = %v, want two predecessors", preds[3])
	}
	if len(preds[0]) != 0 {
		t.Errorf("entry should have no predecessors")
	}
}
