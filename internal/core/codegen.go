package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/sfgl"
)

// The always-hit arrays (mStream0, fStream0) hold smallStreamLen elements,
// like the paper's Fig. 3 example: constant-index accesses into them back
// the synthetic accumulator stores, branch-arm filler and leftover-op
// compensation. Profiled memory sites use stream walkers (streams.go).
const (
	smallStreamLen = 64
	guardLen       = 64
)

// generator turns a skeleton into an HLC program.
type generator struct {
	g   *sfgl.Graph
	rng *rand.Rand

	// smallInt and smallFloat record that the always-hit arrays are
	// referenced; smallWeight is the profiled access weight routed
	// through them (int, float), which compensation re-targets at a
	// scalar pool.
	smallInt    bool
	smallFloat  bool
	smallWeight [2]float64
	guardUsed   bool

	// Stream-walker state (streams.go): per-signature walkers for
	// stream-profiled sites and the hard-branch entropy sites.
	walkers      []*walker
	walkerBySig  map[walkerSpec]*walker
	hardBranches map[*sfgl.BranchInfo]int
	sharedArena  [2]bool // shared short-walker arena declared (int, float)
	compBrUsed   bool    // the compensation loop allocated its entropy state
	aluChainUsed bool    // the compensation loop published its ALU-chain sink
	fpDivThird   bool    // FP compensation mixes divides into its chains
	fpAccs       int     // loop-carried FP accumulator globals allocated

	// missScale is Synthesize's miss-rate feedback knob: walker strides
	// and chase working sets are derived from site miss rates multiplied
	// by it, so the measured clone's aggregate miss rate can be steered
	// onto the profile's. chaseBudget caps the total chase-permutation
	// elements (their init loops are real dynamic work).
	missScale   float64
	chaseBudget float64

	// target accumulates the instruction classes of translated profile
	// blocks; the compensation loop sizes its ALU slice from it.
	target [isa.NumClasses]float64

	// Pattern coverage (Table II's >95% claim), dynamically weighted.
	consumedInstrs float64
	totalInstrs    float64

	// compDyn is the dynamic-instruction budget for the mix-compensation
	// loop (below 1 = no compensation loop);
	// compDensity reports the loads-per-instruction density the generated
	// loop achieves and compTrips its trip count, for Synthesize's
	// feedback calibration. fpShare is the fraction of compensation
	// statements generated as float chains, closing the FP-operation
	// dilution the same way compDyn closes the load one; brPerIter is the
	// number of branch statements per compensation iteration, closing the
	// branch-density dilution with the profile's own hardness mix.
	compDyn     float64
	compDensity float64
	compTrips   int
	fpShare     float64
	brPerIter   float64

	funcs []*hlc.FuncDecl
}

func newGenerator(g *sfgl.Graph, rng *rand.Rand) *generator {
	return &generator{
		g: g, rng: rng,
		walkerBySig:  make(map[walkerSpec]*walker),
		hardBranches: make(map[*sfgl.BranchInfo]int),
		missScale:    1,
		chaseBudget:  float64(chaseBigLen),
	}
}

func (gen *generator) coverage() float64 {
	if gen.totalInstrs == 0 {
		return 1
	}
	cov := gen.consumedInstrs / gen.totalInstrs
	if cov > 1 {
		cov = 1
	}
	return cov
}

// program assembles the full clone: functions from skeleton chunks, the
// always-hit arrays and walker globals, and a main that calls every
// function and prints array heads so no compiler can discard the
// computation.
func (gen *generator) program(items []item) *hlc.Program {
	for start := 0; start < len(items); {
		size := 3 + gen.rng.Intn(6)
		end := start + size
		if end > len(items) {
			end = len(items)
		}
		name := fmt.Sprintf("work%d", len(gen.funcs))
		fn := &hlc.FuncDecl{
			Name: name,
			Ret:  hlc.TypeVoid,
			Body: &hlc.Block{Stmts: gen.stmts(items[start:end], nil, 1)},
		}
		gen.funcs = append(gen.funcs, fn)
		start = end
	}
	if len(gen.funcs) == 0 {
		// Degenerate profile: still produce a valid, runnable clone.
		gen.funcs = append(gen.funcs, &hlc.FuncDecl{
			Name: "work0", Ret: hlc.TypeVoid,
			Body: &hlc.Block{Stmts: []hlc.Stmt{
				&hlc.AssignStmt{LHS: gen.smallRef(false, 0), Op: hlc.Assign, RHS: intLit(1)},
			}},
		})
	}
	if fn := gen.mixCompensationFunc(); fn != nil {
		gen.funcs = append(gen.funcs, fn)
	}

	prog := &hlc.Program{}
	if gen.smallInt {
		prog.Globals = append(prog.Globals,
			&hlc.VarDecl{Name: smallName(false), Type: hlc.TypeInt, ArrayLen: smallStreamLen})
	}
	if gen.smallFloat {
		prog.Globals = append(prog.Globals,
			&hlc.VarDecl{Name: smallName(true), Type: hlc.TypeFloat, ArrayLen: smallStreamLen})
	}
	prog.Globals = append(prog.Globals, gen.walkerDecls()...)
	for i := 0; i < gen.fpAccs; i++ {
		prog.Globals = append(prog.Globals,
			&hlc.VarDecl{Name: fpAccName(i), Type: hlc.TypeFloat})
	}
	prog.Globals = append(prog.Globals, gen.hardBranchDecls()...)
	if gen.compBrUsed {
		prog.Globals = append(prog.Globals, &hlc.VarDecl{Name: "hbc", Type: hlc.TypeInt})
	}
	if gen.aluChainUsed {
		prog.Globals = append(prog.Globals, &hlc.VarDecl{Name: "uax", Type: hlc.TypeInt})
	}
	if gen.guardUsed {
		prog.Globals = append(prog.Globals,
			&hlc.VarDecl{Name: "gKeep", Type: hlc.TypeInt, ArrayLen: guardLen})
	}

	prog.Funcs = append(prog.Funcs, gen.funcs...)

	// main: shuffle the chase permutations, run the work functions in
	// order, then print anchors.
	mainStmts := gen.chaseInitStmts()
	for _, f := range gen.funcs {
		mainStmts = append(mainStmts, &hlc.ExprStmt{X: &hlc.CallExpr{Name: f.Name}})
	}
	if gen.smallInt {
		mainStmts = append(mainStmts, &hlc.PrintStmt{Args: []hlc.Expr{
			&hlc.IndexExpr{Name: smallName(false), Idx: intLit(0)}}})
	}
	if gen.smallFloat {
		mainStmts = append(mainStmts, &hlc.PrintStmt{Args: []hlc.Expr{
			&hlc.IndexExpr{Name: smallName(true), Idx: intLit(0)}}})
	}
	for _, w := range gen.walkers {
		if w.kind == walkScalar {
			mainStmts = append(mainStmts, &hlc.PrintStmt{Args: []hlc.Expr{
				&hlc.VarRef{Name: w.scalarName(0)}}})
			continue
		}
		mainStmts = append(mainStmts, &hlc.PrintStmt{Args: []hlc.Expr{
			&hlc.IndexExpr{Name: w.arrName(), Idx: intLit(0)}}})
		if w.kind == walkChase {
			mainStmts = append(mainStmts, &hlc.PrintStmt{Args: []hlc.Expr{
				&hlc.IndexExpr{Name: w.dataName(), Idx: intLit(0)}}})
		}
	}
	for i := 0; i < gen.fpAccs; i++ {
		mainStmts = append(mainStmts, &hlc.PrintStmt{Args: []hlc.Expr{
			&hlc.VarRef{Name: fpAccName(i)}}})
	}
	if gen.aluChainUsed {
		mainStmts = append(mainStmts, &hlc.PrintStmt{Args: []hlc.Expr{
			&hlc.VarRef{Name: "uax"}}})
	}
	prog.Funcs = append(prog.Funcs, &hlc.FuncDecl{
		Name: "main", Ret: hlc.TypeVoid, Body: &hlc.Block{Stmts: mainStmts},
	})
	return prog
}

// compDensityEstimate is the load density Synthesize assumes for the
// compensation loop before one has been generated and its exact density
// reported via compDensity.
const compDensityEstimate = 0.6

// compSlots is the number of memory sources the compensation loop rotates
// through per iteration.
const compSlots = 12

// compSources returns the integer memory sources the compensation loop
// rotates through, allocated proportionally to each source's profiled
// access weight (largest remainder, descending weight). This is what makes
// the compensation traffic carry the profile's per-stream miss mix: a
// profile dominated by always-hit scalar sites compensates with
// constant-index loads, one with a hot irregular site compensates through
// its chase walker, and the clone's aggregate miss rate survives the added
// load volume. Access weight through the always-hit arrays compensates
// through a scalar pool, the same dense always-hit idiom the translated
// sites use; a clone with no weighted source at all uses that pool alone.
func (gen *generator) compSources(float bool) []memRef {
	type cand struct {
		ref    memRef
		weight float64
	}
	var cands []cand
	var total float64
	for _, w := range gen.walkers {
		if w.weight <= 0 {
			continue
		}
		ref := memRef{w: w}
		switch {
		case float && !w.float:
			continue
		case !float && w.float:
			ref = memRef{w: gen.walkerForSpec(intTwin(w.walkerSpec))}
		}
		cands = append(cands, cand{ref, w.weight})
		total += w.weight
	}
	if wgt := gen.smallWeight[boolIdx(float)]; wgt > 0 {
		cands = append(cands, cand{gen.scalarRef(float), wgt})
		total += wgt
	}
	if total == 0 {
		return []memRef{gen.scalarRef(float)}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].weight > cands[j].weight })
	var out []memRef
	for _, c := range cands {
		n := int(float64(compSlots)*c.weight/total + 0.5)
		if n == 0 && len(out) == 0 {
			n = 1
		}
		for i := 0; i < n && len(out) < compSlots; i++ {
			out = append(out, c.ref)
		}
		if len(out) >= compSlots {
			break
		}
	}
	for len(out) < compSlots {
		out = append(out, cands[0].ref)
	}
	// Cap walking sources at a third of the slots: walker references are
	// markedly less load-dense than scalar ones, and an over-walked loop
	// cannot reach load-heavy profiles' fractions within the size
	// ceiling. The miss volume trimmed here comes back through the
	// missScale feedback on the translated walkers.
	nonSmall := 0
	for i, r := range out {
		if !r.small() {
			nonSmall++
			if nonSmall > compSlots/3 {
				out[i] = gen.scalarRef(float)
			}
		}
	}
	return out
}

// refCost estimates one compensation reference's -O0 loads and
// instructions; the loop's trip count and compDensity are derived from
// these estimates.
func refCost(r memRef) (loads, instrs float64) {
	switch {
	case r.w == nil:
		return 1, 2
	case r.w.kind == walkScalar:
		return 1, 1.2
	}
	return 2, 4
}

// advCost estimates one source's per-iteration advance footprint.
func advCost(r memRef) (loads, instrs float64) {
	switch {
	case r.small():
		return 0, 0
	case r.w.kind == walkChase:
		return 2, 3
	}
	return 1, 4
}

// branchMixture summarizes the scaled profile's conditional branches: the
// dynamic fraction executed at hard (entropy-worthy) sites, and those hard
// sites ordered by execution weight for the compensation loop to draw
// taken rates from.
func (gen *generator) branchMixture() (hardFrac float64, hard []*sfgl.BranchInfo) {
	var total, hardTotal float64
	for _, n := range gen.g.Nodes {
		if n.Branch == nil {
			continue
		}
		total += float64(n.Branch.Total)
		if n.Branch.Hard {
			hardTotal += float64(n.Branch.Total)
			hard = append(hard, n.Branch)
		}
	}
	sort.SliceStable(hard, func(i, j int) bool { return hard[i].Total > hard[j].Total })
	if total == 0 {
		return 0, hard
	}
	return hardTotal / total, hard
}

// mixCompensationFunc is the paper's global mix compensation: after pattern
// translation, a final work function makes up the clone's load deficit with
// a counted loop of load-dense statements over the clone's own memory
// sources (see compSources). Translation overhead (loop iterators, walking
// indices, address masks) is constant- and ALU-heavy, so without this step
// clones systematically under-represent loads relative to their originals
// (Fig. 6). The loop's dynamic size comes from gen.compDyn, which
// Synthesize calibrates by executing the candidate clone and measuring its
// actual mix; a zero budget emits nothing.
func (gen *generator) mixCompensationFunc() *hlc.FuncDecl {
	if gen.compDyn < 1 {
		return nil
	}
	srcs := gen.compSources(false)
	nFloat := int(float64(compSlots)*gen.fpShare + 0.5)
	var fsrcs []memRef
	if nFloat > 0 {
		fsrcs = gen.compSources(true)
	}

	// Compound assignment over a sum of walks is the densest load idiom
	// the compiler emits. The store between statements keeps local CSE
	// from collapsing the loads at higher optimization levels. The first
	// nFloat statements are float multiply-add chains over the clone's
	// float sources — FP compensation riding the same loop.
	// termsPerStmt loads feed each slot, one C-sized sub-statement per
	// term (the flush granularity of the local chains).
	const termsPerStmt = 8
	const iter = "mcomp"
	var body []hlc.Stmt
	var refs, refsF []memRef
	var loadsPerIter, instrsPerIter float64
	// Scalar references rotate through a pool of four per statement:
	// at -O0 every occurrence is its own reload (like the stack traffic
	// it models), and at higher levels CSE registerizes the repeats —
	// reproducing how optimization shrinks the original (Fig. 5).
	slotOf := func(r memRef, raw int) int {
		if r.w != nil && r.w.kind == walkScalar {
			return raw % 4
		}
		return raw % maxRefSlots
	}
	for s := 0; s < compSlots; s++ {
		if s < nFloat {
			// Float slots are loop-carried accumulator chains: a local
			// scalar accumulates the statement's FP-op mixture, so each
			// iteration's chain starts from the previous iteration's
			// result. The accumulator is a function local on purpose: at
			// -O0 it lives in a stack slot and the recurrence serializes
			// through the timing model's store-to-load forwarding, while
			// mem2reg at -O1+ turns it into a register chain — the same
			// O0-to-O1 transition the original's locals go through.
			acc := &hlc.VarRef{Name: fpAccLocal(s)}
			if s+1 > gen.fpAccs {
				gen.fpAccs = s + 1
			}
			rhs := hlc.Expr(acc)
			loadsPerIter, instrsPerIter = loadsPerIter+1, instrsPerIter+1.2
			for t := 1; t < termsPerStmt; t++ {
				term := fsrcs[(s+1+t)%len(fsrcs)]
				op := hlc.Plus
				if t%2 == 1 {
					op = hlc.Star
					if gen.fpDivThird && t%4 == 1 {
						// FP-divide-heavy profiles chain a 24-cycle divide
						// into the accumulator's dependence spine (IEEE: a
						// zero divisor yields Inf, never a trap).
						op = hlc.Slash
					}
				}
				rhs = &hlc.BinaryExpr{Op: op, X: rhs,
					Y: gen.srcWalk(term, slotOf(term, s+t), true)}
				l, in := refCost(term)
				loadsPerIter, instrsPerIter = loadsPerIter+l, instrsPerIter+in+1
				refsF = append(refsF, term)
				if t < termsPerStmt-1 {
					// Flush the partial chain into the accumulator, C
					// statement style. At -O0 the store and reload
					// serialize the sub-statements through forwarding;
					// mem2reg erases both at -O1+.
					body = append(body, &hlc.AssignStmt{LHS: acc, Op: hlc.Assign, RHS: rhs})
					rhs = hlc.Expr(acc)
					loadsPerIter, instrsPerIter = loadsPerIter+1, instrsPerIter+2
				}
			}
			body = append(body, &hlc.AssignStmt{LHS: acc, Op: hlc.Assign, RHS: rhs})
			instrsPerIter += 2
			continue
		}
		pool := srcs
		dst := pool[s%len(pool)]
		first := pool[(s+1)%len(pool)]
		// Integer slots decompose into C-sized sub-statements chained
		// through a named local: at -O0 every sub-statement reloads and
		// re-stores the local (the stack traffic real -O0 code drowns
		// in, serialized by forwarding), and mem2reg erases the local at
		// -O1+, shrinking and parallelizing the slot the way
		// optimization shrinks the original.
		mt := &hlc.VarRef{Name: fmt.Sprintf("mt%d", s)}
		rhs := hlc.Expr(gen.srcWalk(first, slotOf(first, s), false))
		l, in := refCost(first)
		loadsPerIter, instrsPerIter = loadsPerIter+l, instrsPerIter+in
		declared := false
		for t := 1; t < termsPerStmt; t++ {
			term := pool[(s+1+t)%len(pool)]
			rhs = &hlc.BinaryExpr{Op: hlc.Plus, X: rhs,
				Y: gen.srcWalk(term, slotOf(term, s+t), false)}
			l, in = refCost(term)
			loadsPerIter, instrsPerIter = loadsPerIter+l, instrsPerIter+in+1
			refs = append(refs, term)
			if t < termsPerStmt-1 {
				if !declared {
					body = append(body, &hlc.DeclStmt{Decl: &hlc.VarDecl{
						Name: mt.Name, Type: hlc.TypeInt, Init: rhs}})
					declared = true
					instrsPerIter++
				} else {
					body = append(body, &hlc.AssignStmt{LHS: mt, Op: hlc.Assign, RHS: rhs})
					instrsPerIter += 2
					loadsPerIter++
				}
				rhs = hlc.Expr(mt)
			}
		}
		if declared {
			// The final sub-statement reloads the local.
			loadsPerIter, instrsPerIter = loadsPerIter+1, instrsPerIter+1
		}
		body = append(body, &hlc.AssignStmt{
			LHS: gen.srcWalk(dst, slotOf(dst, s), false), Op: hlc.PlusEq, RHS: rhs,
		})
		l, in = refCost(dst)
		loadsPerIter, instrsPerIter = loadsPerIter+l, instrsPerIter+in+2
		refs = append(refs, first, dst)
	}
	seen := map[memRef]bool{}
	for _, r := range append(append([]memRef{}, srcs...), fsrcs...) {
		if seen[r] {
			continue
		}
		seen[r] = true
		l, in := advCost(r)
		loadsPerIter, instrsPerIter = loadsPerIter+l, instrsPerIter+in
	}
	body = append(body, gen.advancesFor(refs, false, 0)...)
	body = append(body, gen.advancesFor(refsF, true, 0)...)
	loadsPerIter += 2 // loop iterator compare and increment
	instrsPerIter += 9

	// ALU compensation: pure register arithmetic over rotating locals, in
	// proportion to the profile's integer-ALU share. This is the mass
	// that separates optimization-friendly originals from memory-bound
	// ones: at -O0 every statement is two stack reloads and a spill
	// around the arithmetic, and at -O1+ mem2reg melts it into
	// register-resident work that wide machines overlap — so an ALU-heavy
	// profile's clone speeds up under optimization (and on wide cores)
	// the way its original does, instead of staying pinned to the memory
	// traffic the globals-based slots can never shed.
	nA := 0
	if totalT := gen.target[isa.ClassLoad] + gen.target[isa.ClassStore] +
		gen.target[isa.ClassIntALU] + gen.target[isa.ClassFPAdd] +
		gen.target[isa.ClassBranch]; totalT > 0 {
		nA = min(int(gen.target[isa.ClassIntALU]/totalT*48+0.5), 32)
	}
	aluLocals := min(nA, 4)
	for j := 0; j < nA; j++ {
		ua := &hlc.VarRef{Name: fmt.Sprintf("ua%d", j%aluLocals)}
		other := hlc.Expr(&hlc.VarRef{Name: fmt.Sprintf("ua%d", (j+1)%aluLocals)})
		if j%3 == 2 {
			other = &hlc.VarRef{Name: iter} // loop-varying, never folds
		}
		body = append(body, &hlc.AssignStmt{
			LHS: ua, Op: hlc.Assign,
			RHS: &hlc.BinaryExpr{Op: hlc.Amp,
				X: &hlc.BinaryExpr{Op: hlc.Plus,
					X: &hlc.BinaryExpr{Op: hlc.Star, X: ua, Y: intLit(int64(37 + 2*j))},
					Y: other},
				Y: intLit(65535)},
		})
		loadsPerIter += 2
		instrsPerIter += 6
	}
	if nA > 0 {
		gen.aluChainUsed = true
	}

	// Branch compensation: nB branch statements per iteration, hard vs.
	// easy in the profile's own proportion, with hard taken rates drawn
	// from the profile's hottest hard sites. Without them the
	// compensation mass dilutes the clone's mispredict density to
	// nothing, and the timing figures lose the branch stalls that
	// dominate irregular workloads. One shared entropy state advances per
	// iteration and each slot tests its own bit window, so a branch costs
	// ~7 instructions — an original's natural branch density (one per
	// 8-10 instructions) stays reachable.
	nB := int(gen.brPerIter + 0.5)
	if nB > 0 {
		gen.compBrUsed = true
		state := &hlc.VarRef{Name: "hbc"}
		body = append(body, &hlc.AssignStmt{
			LHS: state, Op: hlc.Assign,
			RHS: &hlc.BinaryExpr{Op: hlc.Amp,
				X: &hlc.BinaryExpr{Op: hlc.Plus,
					X: &hlc.BinaryExpr{Op: hlc.Star, X: state, Y: intLit(hbMul)},
					Y: intLit(hbInc)},
				Y: intLit(hbMask)},
		})
		loadsPerIter += 1
		instrsPerIter += 8
		hardFrac, kList := gen.branchMixture()
		nHard := int(float64(nB)*hardFrac + 0.5)
		scalar := gen.scalarRef(false)
		for j := 0; j < nB; j++ {
			// Arms carry a scalar load chain so branch mass stays
			// load-dense instead of trading against the mix target; the
			// accumulation is masked so scalar values stay bounded and
			// the easy conditions below never flip.
			arm := &hlc.AssignStmt{
				LHS: gen.srcWalk(scalar, j, false), Op: hlc.Assign,
				RHS: &hlc.BinaryExpr{Op: hlc.Amp,
					X: &hlc.BinaryExpr{Op: hlc.Plus,
						X: gen.srcWalk(scalar, j, false),
						Y: gen.srcWalk(scalar, j+5, false)},
					Y: intLit(65535)},
			}
			var cond hlc.Expr
			if j < nHard && len(kList) > 0 {
				b := kList[j%len(kList)]
				k := min(max(int64(b.TakenRate*256+0.5), 1), 255)
				cond = &hlc.BinaryExpr{Op: hlc.Lt,
					X: &hlc.BinaryExpr{Op: hlc.Amp,
						X: &hlc.BinaryExpr{Op: hlc.Shr, X: state, Y: intLit(int64(j % 9))},
						Y: intLit(255)},
					Y: intLit(k)}
				loadsPerIter += 1 + 2*float64(k)/256
				instrsPerIter += 6 + 5*float64(k)/256
			} else {
				// Easy: a scalar comparison that always (or never) holds —
				// predictable like the original's biased branches, and two
				// more always-hit loads either way.
				op := hlc.Lt
				if j%2 == 1 {
					op = hlc.Gt // scalar sums never exceed the huge bound
				}
				cond = &hlc.BinaryExpr{Op: op,
					X: &hlc.BinaryExpr{Op: hlc.Plus,
						X: gen.srcWalk(scalar, j+3, false),
						Y: gen.srcWalk(scalar, j+7, false)},
					Y: intLit(1 << 40)}
				loadsPerIter += 2 + float64(1-j%2)*2
				instrsPerIter += 6 + float64(1-j%2)*5
			}
			body = append(body, &hlc.IfStmt{Cond: cond, Then: &hlc.Block{Stmts: []hlc.Stmt{arm}}})
		}
	}

	trip := int(gen.compDyn / instrsPerIter)
	if trip < 1 {
		return nil
	}
	if trip > 1<<20 {
		trip = 1 << 20
	}
	gen.compTrips = trip
	gen.compDensity = loadsPerIter / instrsPerIter
	// The accumulator locals wrap the loop: declared (stack slots at -O0,
	// registers after mem2reg) before it, and published to the printed
	// globals after it so the chains stay live.
	stmts := make([]hlc.Stmt, 0, 2*nFloat+aluLocals+2)
	for i := 0; i < nFloat; i++ {
		stmts = append(stmts, &hlc.DeclStmt{Decl: &hlc.VarDecl{
			Name: fpAccLocal(i), Type: hlc.TypeFloat,
			Init: &hlc.FloatLit{Value: 0.5 + float64(i)*0.25},
		}})
	}
	for i := 0; i < aluLocals; i++ {
		stmts = append(stmts, &hlc.DeclStmt{Decl: &hlc.VarDecl{
			Name: fmt.Sprintf("ua%d", i), Type: hlc.TypeInt, Init: intLit(int64(3 + i)),
		}})
	}
	stmts = append(stmts, &hlc.ForStmt{
		Init: &hlc.DeclStmt{Decl: &hlc.VarDecl{Name: iter, Type: hlc.TypeInt, Init: intLit(0)}},
		Cond: &hlc.BinaryExpr{Op: hlc.Lt, X: &hlc.VarRef{Name: iter}, Y: intLit(int64(trip))},
		Post: &hlc.AssignStmt{LHS: &hlc.VarRef{Name: iter}, Op: hlc.PlusEq, RHS: intLit(1)},
		Body: &hlc.Block{Stmts: body},
	})
	for i := 0; i < nFloat; i++ {
		stmts = append(stmts, &hlc.AssignStmt{
			LHS: &hlc.VarRef{Name: fpAccName(i)}, Op: hlc.Assign,
			RHS: &hlc.VarRef{Name: fpAccLocal(i)},
		})
	}
	if nA > 0 {
		sum := hlc.Expr(&hlc.VarRef{Name: "ua0"})
		for i := 1; i < aluLocals; i++ {
			sum = &hlc.BinaryExpr{Op: hlc.Plus, X: sum,
				Y: &hlc.VarRef{Name: fmt.Sprintf("ua%d", i)}}
		}
		stmts = append(stmts, &hlc.AssignStmt{
			LHS: &hlc.VarRef{Name: "uax"}, Op: hlc.Assign, RHS: sum,
		})
	}
	return &hlc.FuncDecl{
		Name: fmt.Sprintf("work%d", len(gen.funcs)),
		Ret:  hlc.TypeVoid,
		Body: &hlc.Block{Stmts: stmts},
	}
}

// loopCtx tracks enclosing synthetic loop iterator names.
type loopCtx []string

func (c loopCtx) innermost() (string, bool) {
	if len(c) == 0 {
		return "", false
	}
	return c[len(c)-1], true
}

func (gen *generator) stmts(items []item, ctx loopCtx, w float64) []hlc.Stmt {
	var out []hlc.Stmt
	for _, it := range items {
		switch v := it.(type) {
		case *loopItem:
			out = append(out, gen.loopStmt(v, ctx, w)...)
		case *blockItem:
			out = append(out, gen.blockStmts(v, ctx, w)...)
		}
	}
	if len(out) == 0 {
		// Never emit an empty function/loop body: keep one anchor store.
		out = append(out, &hlc.AssignStmt{
			LHS: gen.smallRef(false, 0), Op: hlc.PlusEq, RHS: intLit(1)})
	}
	return out
}

func (gen *generator) loopStmt(it *loopItem, ctx loopCtx, w float64) []hlc.Stmt {
	iter := fmt.Sprintf("li%d", len(ctx))
	wBody := w * it.freq * float64(it.trip)
	body := gen.stmts(it.body, append(ctx, iter), wBody)
	loop := &hlc.ForStmt{
		Init: &hlc.DeclStmt{Decl: &hlc.VarDecl{Name: iter, Type: hlc.TypeInt, Init: intLit(0)}},
		Cond: &hlc.BinaryExpr{Op: hlc.Lt, X: &hlc.VarRef{Name: iter}, Y: intLit(int64(it.trip))},
		Post: &hlc.AssignStmt{LHS: &hlc.VarRef{Name: iter}, Op: hlc.PlusEq, RHS: intLit(1)},
		Body: &hlc.Block{Stmts: body},
	}
	if it.freq < 0.95 {
		return []hlc.Stmt{gen.wrapFreq(loop, it.freq, ctx)}
	}
	return []hlc.Stmt{loop}
}

// blockStmts translates one basic-block occurrence: Table II pattern
// recognition over its instruction types, then branch modeling, then
// frequency wrapping.
func (gen *generator) blockStmts(it *blockItem, ctx loopCtx, w float64) []hlc.Stmt {
	n := it.node
	wEff := w * it.freq
	if it.freq < 0.05 {
		wEff = 0 // never-executed arm
	}
	stmts := gen.translate(n, wEff)
	if n.Branch != nil && !it.latch {
		stmts = append(stmts, gen.branchStmt(n.Branch))
	}
	if it.freq < 0.95 && len(stmts) > 0 {
		// Low-frequency blocks execute conditionally; below 5% the paper
		// drops them into the never-executed arm of an easy branch whose
		// body prints results.
		if it.freq < 0.05 {
			return []hlc.Stmt{gen.neverTakenIf(stmts)}
		}
		return []hlc.Stmt{gen.wrapFreq(&hlc.Block{Stmts: stmts}, it.freq, ctx)}
	}
	return stmts
}

// wrapFreq makes stmt execute approximately frac of the time using a
// modulo test on the innermost loop iterator (the paper's hard-branch
// mechanism); outside loops it falls back to a guard test.
func (gen *generator) wrapFreq(stmt hlc.Stmt, frac float64, ctx loopCtx) hlc.Stmt {
	iter, ok := ctx.innermost()
	if !ok {
		if frac >= 0.5 {
			return gen.alwaysTakenIf([]hlc.Stmt{stmt})
		}
		return gen.neverTakenIf([]hlc.Stmt{stmt})
	}
	m, k := moduloFor(frac, 0.5)
	return &hlc.IfStmt{
		Cond: &hlc.BinaryExpr{Op: hlc.Lt,
			X: &hlc.BinaryExpr{Op: hlc.Amp, X: &hlc.VarRef{Name: iter}, Y: intLit(int64(m - 1))},
			Y: intLit(int64(k))},
		Then: toBlock(stmt),
	}
}

// moduloFor picks modulo parameters (m, k) so that (i mod m) < k holds for
// about takenFrac of consecutive i, with a period reflecting transRate.
// m is a power of two so the test compiles to a mask (i & (m-1)) < k:
// originals have essentially no integer divides, and a `%` here would
// flood the clone's mix with idiv-class instructions the profile lacks.
func moduloFor(takenFrac, transRate float64) (int, int) {
	m := 4
	if transRate > 0 {
		m = int(2.0/transRate + 0.5)
	}
	for p := 2; p <= 64; p *= 2 {
		if p >= m {
			m = p
			break
		}
	}
	if m > 64 {
		m = 64
	}
	k := int(takenFrac*float64(m) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > m-1 {
		k = m - 1
	}
	return m, k
}

// branchStmt models a non-loop conditional branch per Section III.B.4.
// Easy branches become always/never-taken guard tests whose dead arm
// prints results; hard branches draw their condition from a per-site
// entropy stream (see hardBranchStmts), so they mispredict like the
// original's data-dependent branches instead of settling into a
// predictor-learnable iterator pattern.
func (gen *generator) branchStmt(b *sfgl.BranchInfo) hlc.Stmt {
	if !b.Hard {
		if b.TakenRate >= 0.5 {
			return gen.alwaysTakenIf([]hlc.Stmt{gen.smallStmt()})
		}
		return gen.neverTakenIf([]hlc.Stmt{gen.smallStmt()})
	}
	return &hlc.Block{Stmts: gen.hardBranchStmts(b,
		[]hlc.Stmt{gen.smallStmt()}, []hlc.Stmt{gen.smallStmt()})}
}

// neverTakenIf wraps statements in a condition that is never true at run
// time (the guard array is never written), adding the paper's print-the-
// results filler so the compiler must keep everything reachable.
func (gen *generator) neverTakenIf(inner []hlc.Stmt) hlc.Stmt {
	gen.guardUsed = true
	body := append([]hlc.Stmt{}, inner...)
	body = append(body, gen.printFiller())
	return &hlc.IfStmt{
		Cond: &hlc.BinaryExpr{Op: hlc.Eq, X: gen.guardRef(), Y: intLit(99)},
		Then: &hlc.Block{Stmts: body},
	}
}

// alwaysTakenIf wraps statements in a condition that always holds; the dead
// else arm prints results.
func (gen *generator) alwaysTakenIf(inner []hlc.Stmt) hlc.Stmt {
	gen.guardUsed = true
	return &hlc.IfStmt{
		Cond: &hlc.BinaryExpr{Op: hlc.Lt, X: gen.guardRef(), Y: intLit(99)},
		Then: &hlc.Block{Stmts: inner},
		Else: &hlc.Block{Stmts: []hlc.Stmt{gen.printFiller()}},
	}
}

func (gen *generator) guardRef() hlc.Expr {
	return &hlc.IndexExpr{Name: "gKeep", Idx: intLit(int64(gen.rng.Intn(guardLen)))}
}

func (gen *generator) printFiller() hlc.Stmt {
	return &hlc.PrintStmt{Args: []hlc.Expr{gen.smallRef(false, int64(gen.rng.Intn(8)))}}
}

// smallStmt returns a minimal always-hit statement for branch arms.
func (gen *generator) smallStmt() hlc.Stmt {
	return &hlc.AssignStmt{
		LHS: gen.smallWalk(false),
		Op:  hlc.Assign,
		RHS: &hlc.BinaryExpr{Op: hlc.Plus, X: gen.smallWalk(false), Y: intLit(int64(1 + gen.rng.Intn(9)))},
	}
}

func toBlock(s hlc.Stmt) *hlc.Block {
	if b, ok := s.(*hlc.Block); ok {
		return b
	}
	return &hlc.Block{Stmts: []hlc.Stmt{s}}
}

func intLit(v int64) *hlc.IntLit { return &hlc.IntLit{Value: v} }

// --- stream naming and references ---

// fpAccName names the i-th loop-carried FP accumulator global (the
// published, printed copy of the chain's final value).
func fpAccName(i int) string { return fmt.Sprintf("facc%d", i) }

// fpAccLocal names the i-th accumulator's in-loop local.
func fpAccLocal(i int) string { return fmt.Sprintf("fl%d", i) }

// smallName names the always-hit array of the given element type.
func smallName(float bool) string {
	if float {
		return "fStream0"
	}
	return "mStream0"
}

// smallRef returns the always-hit array's element off and marks the array
// used.
func (gen *generator) smallRef(float bool, off int64) *hlc.IndexExpr {
	if float {
		gen.smallFloat = true
	} else {
		gen.smallInt = true
	}
	return &hlc.IndexExpr{Name: smallName(float), Idx: intLit(off)}
}

// smallWalk returns an always-hit reference at a random constant index.
func (gen *generator) smallWalk(float bool) *hlc.IndexExpr {
	return gen.smallRef(float, int64(gen.rng.Intn(smallStreamLen)))
}
