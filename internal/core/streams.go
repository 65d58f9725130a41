package core

import (
	"fmt"
	"strconv"

	"repro/internal/hlc"
	"repro/internal/sfgl"
)

// This file implements the stream-walker layer of the synthesizer: the
// translation of per-site stride streams (sfgl.Stream) into memory walkers.
// Where the paper's Table I gives every memory class one shared
// fixed-stride array, stream walkers are allocated per stride signature —
// a fractional-stride walk for regular sites (the index lives in
// quarter-element units and references shift it down, so miss rates are
// reproduced at ~3% granularity instead of the Table I classes' 12.5%
// steps), a pointer-chase walk over a shuffled index permutation for
// irregular sites (whose address stream no cache can pattern away, and
// whose advances form a load-to-load dependence chain), and scalar pools
// for always-hit sites. A walk advances one stride per reference sharing
// the statement: one shared index advanced per statement would dilute the
// clone's miss volume by the number of references sharing it. Every
// profiled memory site carries a stream (sfgl.Graph.Validate rejects
// profiles that do not).

// Walker geometry. Stride arrays walk 64KB, beyond the largest Fig. 7/8
// cache; chase arrays are sized per miss rate. Pads give same-statement
// references line-spread offsets without re-masking.
const (
	strideWalkLen  = 16384 // int stride-walker walking range (64KB of 4-byte elements)
	strideWalkLenF = 8192  // float walking range (64KB of 8-byte elements)
	walkPad        = 128   // headroom for line-spread reference offsets
	refLineStep    = 8     // elements between same-statement refs (one 32B line)
	maxRefSlots    = walkPad/refLineStep - 1
)

// Chase working-set sizes and the miss-rate thresholds that select them.
// At the 8KB profiling cache a full-period chase over W bytes misses at
// roughly 1-8KB/W, so the three sizes land near 0, 0.5, and 0.875; the
// missScale feedback in Synthesize trues up the aggregate.
const (
	chaseSmallLen = 1024  // 4KB: fits the profiling cache — dependence, no misses
	chaseMidLen   = 4096  // 16KB
	chaseBigLen   = 16384 // 64KB
	chaseMidMiss  = 0.15
	chaseBigMiss  = 0.55
	// chaseStep is the permutation multiplier (≡ 1 mod 4, so the affine
	// map i -> i*step+1 mod 2^k is a full-period permutation for any
	// power-of-two length ≥ 4).
	chaseStep = 25033
	// chaseLineSpread spaces chase elements one cache line apart (8
	// 4-byte ints = 32B) for sites whose misses survive the wide
	// profiling cache: a dense chase of the same period fits mid-level
	// caches and its misses stop there, while the original's walk keeps
	// missing all the way to memory. Spreading multiplies the footprint
	// by 8 without growing the init loop (the permutation period — the
	// init cost — is unchanged).
	chaseLineSpread = 8
)

// Stream classification thresholds: a site is irregular when no single
// stride dominates and consecutive strides rarely repeat; it is resident
// (locality-bound) when its misses mostly vanish at the wide cache.
const (
	irregularTop1 = 0.7
	irregularReg  = 0.5
	residentRatio = 0.2
)

// walkerKind distinguishes stride walks, pointer chases, and scalar
// pools.
type walkerKind int

const (
	walkStride walkerKind = iota
	walkChase
	// walkScalar is a pool of scalar globals for always-hit sites: the
	// profile's scalar traffic is -O0 stack reloads, and a direct scalar
	// load is both denser and more faithful than a constant-indexed
	// array access.
	walkScalar
)

// scalarPool is the number of scalar globals a walkScalar walker rotates
// through (two cache lines — always hit, like the stack slots they model).
const scalarPool = 16

// walkerSpec is a walker's materialized signature; walkers are deduplicated
// on it, so sites with equal quantized behavior share arrays.
type walkerSpec struct {
	kind  walkerKind
	float bool
	// Stride walkers: the index advances qstep quarter-elements per
	// reference (references shift the index down two bits), encoding
	// fractional strides — fractional miss rates — without any extra
	// per-advance state. short walkers wrap at half the standard range:
	// their sites' working sets fit the wide profiling cache, so the
	// walk must stay second-level resident instead of streaming.
	qstep int
	short bool
	long  bool
	// xlong walkers (misses survive even the wide cache nearly intact)
	// stream over 16x the standard range so their misses reach memory
	// instead of re-warming mid-level caches.
	xlong bool
	// Chase walkers: the permutation length in elements, and the element
	// spacing (1 = dense, chaseLineSpread = one line per element).
	chaseLen int
	spread   int
}

// walker is one allocated stream walker.
type walker struct {
	walkerSpec
	id     int
	weight float64 // profiled access weight routed through this walker
}

// memRef names one memory-access source: a stream walker, or (w == nil)
// the always-hit array of the reference's element type.
type memRef struct {
	w *walker
}

// small reports whether the ref is an always-hit source with no walking
// index (a constant-index array access or a scalar-pool global).
func (r memRef) small() bool {
	return r.w == nil || r.w.kind == walkScalar
}

// scalarRef returns the scalar-pool source of the given element type.
func (gen *generator) scalarRef(float bool) memRef {
	return memRef{w: gen.walkerForSpec(walkerSpec{kind: walkScalar, float: float})}
}

// walker caps: stride walkers beyond the cap reuse the nearest existing
// signature so global count (and the clone's allocated footprint) stays
// bounded; chase walkers are naturally capped by their three sizes.
const maxStrideWalkers = 12

// refFor maps one load/store token to its memory source. Tokens without a
// stream descriptor — the synthetic accumulator store and accesses the
// profiler never observed — use the always-hit array.
func (gen *generator) refFor(t tok, float bool) memRef {
	if t.stream == nil {
		return memRef{}
	}
	spec, _ := gen.streamSpec(t.stream, float)
	return memRef{w: gen.walkerForSpec(spec)}
}

// streamSpec classifies a stream descriptor into a walker signature.
// ok=false means the site is effectively scalar (always-hit) and should
// use the small constant-index array.
func (gen *generator) streamSpec(s *sfgl.Stream, float bool) (walkerSpec, bool) {
	m := s.MissRate * gen.missScale
	if m > 1 {
		m = 1
	}
	irregular := s.TopFrac(1) < irregularTop1 && s.Regularity < irregularReg
	if irregular && m < 0.02 && s.ShortReuse > 0.9 {
		irregular = false // hot window, no misses: scalar-like
	}
	// The two-point miss curve bounds the working set: a site whose
	// misses vanish at the wide cache must not stream past it.
	resident := s.MissRate > 0.02 && s.MissWide <= residentRatio*s.MissRate
	if irregular {
		ln := chaseSmallLen
		switch {
		case m >= chaseBigMiss:
			ln = chaseBigLen
		case m >= chaseMidMiss:
			ln = chaseMidLen
		}
		if resident && ln > chaseMidLen {
			ln = chaseMidLen
		}
		// High-miss chases whose misses survive the wide cache walk a
		// structure bigger than any mid-level cache: spread the elements
		// one line apart so the (budget-capped) permutation covers a
		// working set that misses to memory, like the original's.
		spread := 1
		if !resident && m >= chaseBigMiss && s.MissWide >= 0.5*s.MissRate {
			spread = chaseLineSpread
		}
		return walkerSpec{kind: walkChase, float: float, chaseLen: ln, spread: spread}, true
	}
	// Regular: fractional stride from the measured miss rate. A stride of
	// missRate*lineSize bytes reproduces the rate; quarter-elements are
	// 1 byte for int walkers and 2 for float ones.
	maxQ := 32
	if float {
		maxQ = 16
	}
	q := int(m*float64(maxQ) + 0.5)
	if q > maxQ {
		q = maxQ
	}
	if q == 0 {
		return walkerSpec{kind: walkScalar, float: float}, true // always-hit site
	}
	// Pure streaming (misses survive even the wide cache): quadruple the
	// range so the walk stays compulsory-cold instead of re-warming the
	// second level when compensation traffic laps the array; when the
	// wide-cache misses are nearly all of the narrow-cache ones the
	// stream never re-warms anything and the range grows 16x so its
	// misses go to memory on machines with mid-sized second levels.
	long := !resident && s.MissRate >= 0.05 && s.MissWide >= 0.7*s.MissRate
	xlong := long && s.MissRate >= 0.1 && s.MissWide >= 0.85*s.MissRate
	return walkerSpec{kind: walkStride, float: float, qstep: q, short: resident, long: long, xlong: xlong}, true
}

// walkerForSpec returns the walker for a signature, materializing it if
// the caps allow and mapping to the nearest existing walker otherwise.
func (gen *generator) walkerForSpec(spec walkerSpec) *walker {
	if w, ok := gen.walkerBySig[spec]; ok {
		return w
	}
	requested := spec
	if spec.kind == walkChase {
		// Cap total chase-permutation footprint: the init loop in main is
		// real dynamic work, and a small clone cannot afford to shuffle
		// 16K elements before doing anything. Downgrade until it fits.
		for spec.chaseLen > chaseSmallLen && float64(spec.chaseLen) > gen.chaseBudget {
			spec.chaseLen /= 4
		}
		if w, ok := gen.walkerBySig[spec]; ok {
			gen.walkerBySig[requested] = w // later same-signature sites share it
			return w
		}
		gen.chaseBudget -= float64(spec.chaseLen)
	} else {
		n := 0
		for _, w := range gen.walkers {
			if w.kind == walkStride && w.float == spec.float {
				n++
			}
		}
		if n >= maxStrideWalkers {
			return gen.nearestStride(spec)
		}
	}
	w := &walker{walkerSpec: spec, id: len(gen.walkers)}
	gen.walkers = append(gen.walkers, w)
	gen.walkerBySig[spec] = w
	gen.walkerBySig[requested] = w
	return w
}

// nearestStride finds the existing stride walker whose quarter-element
// stride is closest to the requested signature.
func (gen *generator) nearestStride(spec walkerSpec) *walker {
	var best *walker
	bestD := 1 << 30
	for _, w := range gen.walkers {
		if w.kind != walkStride || w.float != spec.float {
			continue
		}
		d := w.qstep - spec.qstep
		if d < 0 {
			d = -d
		}
		if d < bestD {
			best, bestD = w, d
		}
	}
	return best // caps guarantee at least one exists
}

// --- naming ---

func (w *walker) arrName() string {
	switch {
	case w.kind == walkChase:
		return "cA" + strconv.Itoa(w.id)
	case w.short && w.float:
		return "shF" // wide-resident walkers share one arena per type:
	case w.short:
		return "shA" // their sites share buffers in the original too
	case w.float:
		return "sF" + strconv.Itoa(w.id)
	}
	return "sA" + strconv.Itoa(w.id)
}

// dataName is the array data references read and write. For stride walkers
// it is the walking array itself; chase walkers keep a separate payload
// array (cD/cF) so that stores through the walker cannot corrupt the cA
// permutation the advance chain follows.
func (w *walker) dataName() string {
	if w.kind != walkChase {
		return w.arrName()
	}
	if w.float {
		return "cF" + strconv.Itoa(w.id)
	}
	return "cD" + strconv.Itoa(w.id)
}

func (w *walker) idxName() string { return "wp" + strconv.Itoa(w.id) }

// scalarName returns the j-th scalar of a walkScalar pool.
func (w *walker) scalarName(j int) string {
	prefix := "zi"
	if w.float {
		prefix = "zf"
	}
	return prefix + strconv.Itoa(w.id) + "_" + strconv.Itoa(j)
}

// chaseSpan is a chase walker's walked element range: the permutation
// period times the element spacing.
func (w *walker) chaseSpan() int {
	if w.spread > 1 {
		return w.chaseLen * w.spread
	}
	return w.chaseLen
}

func (w *walker) walkLen() int {
	if w.kind == walkChase {
		return w.chaseLen
	}
	n := strideWalkLen
	if w.float {
		n = strideWalkLenF
	}
	switch {
	case w.short:
		n /= 2 // 32KB: misses the small caches, stays wide-resident
	case w.xlong:
		n *= 16 // 1MB: streaming misses reach memory past mid-sized L2s
	case w.long:
		n *= 4 // 256KB: compulsory-cold streaming
	}
	return n
}

// --- reference and advance emission ---

// walkerRefOff returns the walker's data reference at an element offset
// from its index. Stride-walker indices live in quarter-element units and
// are shifted down here; chase indices are element-valued already.
func (gen *generator) walkerRefOff(w *walker, off int) *hlc.IndexExpr {
	idx := hlc.Expr(&hlc.VarRef{Name: w.idxName()})
	if w.kind == walkStride {
		idx = &hlc.BinaryExpr{Op: hlc.Shr, X: idx, Y: intLit(2)}
	}
	if off != 0 {
		idx = &hlc.BinaryExpr{Op: hlc.Plus, X: idx, Y: intLit(int64(off))}
	}
	return &hlc.IndexExpr{Name: w.dataName(), Idx: idx}
}

// srcWalk returns the reference for one memory source at a statement slot.
// Walker slots are spaced a cache line apart so each profiled access the
// statement translates contributes its own line visit (one shared index
// advanced per statement must not dilute the per-access miss rate by the
// number of references sharing it).
func (gen *generator) srcWalk(r memRef, slot int, float bool) hlc.LValue {
	if r.w != nil {
		if r.w.kind == walkScalar {
			return &hlc.VarRef{Name: r.w.scalarName(slot % scalarPool)}
		}
		if slot > maxRefSlots {
			slot = slot % (maxRefSlots + 1)
		}
		return gen.walkerRefOff(r.w, slot*refLineStep)
	}
	return gen.smallWalk(float)
}

// intTwin returns the integer-array walker spec with the same byte-level
// advance behavior as spec. The compensation loop is integer arithmetic,
// so float-site access weight compensates through an int walker whose
// strides cover the same bytes per advance (int quarter-elements are 1
// byte, so rb bytes decompose exactly).
func intTwin(spec walkerSpec) walkerSpec {
	if !spec.float {
		return spec
	}
	spec.float = false
	if spec.kind == walkStride {
		spec.qstep *= 2 // float quarters are 2 bytes, int quarters 1
	}
	return spec
}

// advanceWalker emits a walker's index update on behalf of mult
// references.
//
// Stride walkers move mult stride-lengths per statement: all lanes of one
// linear walk share its line stream (the trailing lane always hits lines
// the leading lane fetched), so per-reference miss rates survive only if
// the walk covers one stride per reference. The index lives in
// quarter-element units (references shift it down two bits), so the
// fractional strides that encode fractional miss rates are a single
// masked add:
//
//	wp = (wp + mult*qstep) & (4*len - 1)
//
// Chase walkers load their next index from the permutation itself,
//
//	wp = cA[wp]
//
// which makes consecutive walker positions a load-to-load dependence chain
// over an unpredictable address stream — the irregular-site behavior one
// fixed stride per class could not express. One jump per statement
// suffices for any mult: a jump teleports the index, so the line-spread
// reference slots each land on their own cold line.
func (gen *generator) advanceWalker(w *walker, mult int) []hlc.Stmt {
	idx := &hlc.VarRef{Name: w.idxName()}
	if w.kind == walkScalar || mult < 1 || (w.kind == walkStride && w.qstep == 0) {
		return nil
	}
	if w.kind == walkChase {
		return []hlc.Stmt{&hlc.AssignStmt{
			LHS: idx, Op: hlc.Assign,
			RHS: &hlc.IndexExpr{Name: w.arrName(), Idx: &hlc.VarRef{Name: w.idxName()}},
		}}
	}
	mask := int64(4*w.walkLen() - 1)
	return []hlc.Stmt{&hlc.AssignStmt{
		LHS: idx, Op: hlc.Assign,
		RHS: &hlc.BinaryExpr{Op: hlc.Amp,
			X: &hlc.BinaryExpr{Op: hlc.Plus, X: idx, Y: intLit(int64(mult * w.qstep))},
			Y: intLit(mask)},
	}}
}

// advancesFor emits index updates for the sources a statement's references
// touched — one advance per distinct walker, scaled by how many references
// shared it — and charges each source's profiled weight for compensation
// targeting. Always-hit sources never advance. refs must hold one entry
// per generated reference.
func (gen *generator) advancesFor(refs []memRef, float bool, weight float64) []hlc.Stmt {
	count := map[int]int{}
	var order []*walker
	for _, r := range refs {
		if r.w == nil {
			gen.smallWeight[boolIdx(float)] += weight
			continue
		}
		r.w.weight += weight
		if count[r.w.id] == 0 {
			order = append(order, r.w)
		}
		count[r.w.id]++
	}
	var out []hlc.Stmt
	for _, w := range order {
		out = append(out, gen.advanceWalker(w, count[w.id])...)
	}
	return out
}

func boolIdx(b bool) int {
	if b {
		return 1
	}
	return 0
}

// walkerDecls returns the global declarations for all materialized
// walkers, in allocation order.
func (gen *generator) walkerDecls() []*hlc.VarDecl {
	var out []*hlc.VarDecl
	for _, w := range gen.walkers {
		if w.kind == walkScalar {
			typ := hlc.TypeInt
			if w.float {
				typ = hlc.TypeFloat
			}
			for j := 0; j < scalarPool; j++ {
				out = append(out, &hlc.VarDecl{Name: w.scalarName(j), Type: typ})
			}
			continue
		}
		if w.kind == walkChase {
			out = append(out, &hlc.VarDecl{Name: w.arrName(), Type: hlc.TypeInt,
				ArrayLen: w.chaseSpan() + walkPad})
			typ := hlc.TypeInt
			if w.float {
				typ = hlc.TypeFloat
			}
			out = append(out, &hlc.VarDecl{Name: w.dataName(), Type: typ,
				ArrayLen: w.chaseSpan() + walkPad})
			out = append(out, &hlc.VarDecl{Name: w.idxName(), Type: hlc.TypeInt})
			continue
		}
		typ := hlc.TypeInt
		if w.float {
			typ = hlc.TypeFloat
		}
		if !w.short || !gen.sharedArena[boolIdx(w.float)] {
			if w.short {
				gen.sharedArena[boolIdx(w.float)] = true
			}
			out = append(out, &hlc.VarDecl{Name: w.arrName(), Type: typ,
				ArrayLen: w.walkLen() + walkPad})
		}
		out = append(out, &hlc.VarDecl{Name: w.idxName(), Type: hlc.TypeInt})
	}
	return out
}

// chaseInitStmts builds the permutation-shuffle loops that run at the top
// of main: cA[i] = (i*chaseStep + 1) & (len-1), a full-period affine
// permutation, so following cA from any start visits every element in a
// pseudo-random line order. Spread walkers scale both the slot and the
// stored successor by the element spacing: the walked positions are
// i*spread, one line apart, and the init loop stays O(period).
func (gen *generator) chaseInitStmts() []hlc.Stmt {
	var out []hlc.Stmt
	for _, w := range gen.walkers {
		if w.kind != walkChase {
			continue
		}
		iter := fmt.Sprintf("ci%d", w.id)
		slot := hlc.Expr(&hlc.VarRef{Name: iter})
		perm := hlc.Expr(&hlc.BinaryExpr{Op: hlc.Amp,
			X: &hlc.BinaryExpr{Op: hlc.Plus,
				X: &hlc.BinaryExpr{Op: hlc.Star, X: &hlc.VarRef{Name: iter}, Y: intLit(chaseStep)},
				Y: intLit(1)},
			Y: intLit(int64(w.chaseLen - 1))})
		if w.spread > 1 {
			slot = &hlc.BinaryExpr{Op: hlc.Star, X: slot, Y: intLit(int64(w.spread))}
			perm = &hlc.BinaryExpr{Op: hlc.Star, X: perm, Y: intLit(int64(w.spread))}
		}
		body := []hlc.Stmt{&hlc.AssignStmt{
			LHS: &hlc.IndexExpr{Name: w.arrName(), Idx: slot},
			Op:  hlc.Assign,
			RHS: perm,
		}}
		out = append(out, &hlc.ForStmt{
			Init: &hlc.DeclStmt{Decl: &hlc.VarDecl{Name: iter, Type: hlc.TypeInt, Init: intLit(0)}},
			Cond: &hlc.BinaryExpr{Op: hlc.Lt, X: &hlc.VarRef{Name: iter}, Y: intLit(int64(w.chaseLen))},
			Post: &hlc.AssignStmt{LHS: &hlc.VarRef{Name: iter}, Op: hlc.PlusEq, RHS: intLit(1)},
			Body: &hlc.Block{Stmts: body},
		})
	}
	return out
}

// --- hard-branch entropy ---

// Hard-branch LCG parameters: a full-period 16-bit affine generator
// (multiplier ≡ 1 mod 4, increment odd).
const (
	hbMul  = 25173
	hbInc  = 13849
	hbMask = 65535
)

// hardBranchState returns the per-site entropy variable for a profiled
// hard branch, allocating one on first use. ScaleDown gives every node its
// own BranchInfo copy, so the pointer identifies the static branch site
// across all its skeleton occurrences.
func (gen *generator) hardBranchState(b *sfgl.BranchInfo) string {
	id, ok := gen.hardBranches[b]
	if !ok {
		id = len(gen.hardBranches)
		gen.hardBranches[b] = id
	}
	return "hb" + strconv.Itoa(id)
}

// hardBranchStmts emits the data-entropy conditional for a hard branch:
// the site's LCG state advances, and the branch tests its low bits against
// the profiled taken rate. Unlike a modulo test on a loop iterator — a
// short periodic pattern every history-based predictor learns perfectly —
// the LCG sequence is unlearnable at predictor scale, so the clone's hard
// branches mispredict like the original's data-dependent ones.
func (gen *generator) hardBranchStmts(b *sfgl.BranchInfo, thenS, elseS []hlc.Stmt) []hlc.Stmt {
	name := gen.hardBranchState(b)
	state := &hlc.VarRef{Name: name}
	k := int64(b.TakenRate*256 + 0.5)
	if k < 1 {
		k = 1
	}
	if k > 255 {
		k = 255
	}
	adv := &hlc.AssignStmt{
		LHS: state, Op: hlc.Assign,
		RHS: &hlc.BinaryExpr{Op: hlc.Amp,
			X: &hlc.BinaryExpr{Op: hlc.Plus,
				X: &hlc.BinaryExpr{Op: hlc.Star, X: state, Y: intLit(hbMul)},
				Y: intLit(hbInc)},
			Y: intLit(hbMask)},
	}
	cond := &hlc.BinaryExpr{Op: hlc.Lt,
		X: &hlc.BinaryExpr{Op: hlc.Amp, X: state, Y: intLit(255)},
		Y: intLit(k)}
	return []hlc.Stmt{adv, &hlc.IfStmt{Cond: cond,
		Then: &hlc.Block{Stmts: thenS}, Else: &hlc.Block{Stmts: elseS}}}
}

// hardBranchDecls returns the entropy-state globals in allocation order.
func (gen *generator) hardBranchDecls() []*hlc.VarDecl {
	var out []*hlc.VarDecl
	for id := 0; id < len(gen.hardBranches); id++ {
		out = append(out, &hlc.VarDecl{Name: fmt.Sprintf("hb%d", id), Type: hlc.TypeInt})
	}
	return out
}
