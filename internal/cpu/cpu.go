// Package cpu provides the performance (timing) models: an out-of-order
// ROB-window model and an in-order EPIC model, plus the machine
// configurations of the paper's Table III. It substitutes for PTLSim and
// for the five real machines of the paper's evaluation.
//
// The out-of-order model is a one-pass trace-driven window model: each
// dynamic instruction dispatches in order (bounded by fetch width, ROB
// occupancy, and branch-mispredict refill bubbles), starts executing once
// its register inputs are ready, and completes after its functional-unit or
// memory latency. That captures exactly the effects the paper's figures
// depend on — dependence chains, cache-miss stalls, mispredict bubbles, and
// issue-width limits — at a small fraction of the cost of a detailed
// pipeline simulator.
//
// The EPIC model issues compiler-built bundles strictly in order: a bundle
// stalls until every input of every instruction in it is ready. It only
// goes fast when the static scheduler has packed independent operations
// together, which is what makes the Itanium numbers sensitive to the
// optimization level (Fig. 11).
package cpu

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Config describes one machine. Its JSON form (see MarshalJSON) is the
// machine description explore specs, explore reports and cluster queues
// carry. It writes every field, and every field but name and isa is a
// sweep axis.
type Config struct {
	Name string `json:"name"`
	// ISA is the target ISA, by name on the wire. It decides the timing
	// model: an EPIC ISA runs on the in-order bundle model, any other on
	// the out-of-order model.
	ISA     *isa.Desc `json:"isa"`
	FreqGHz float64   `json:"freqGHz"`

	Width             int `json:"width"`             // dispatch width (instructions/cycle); EPIC: bundles/cycle
	ROB               int `json:"rob"`               // reorder-buffer entries (OoO only)
	MispredictPenalty int `json:"mispredictPenalty"` // front-end refill bubbles after a mispredict
	StoreQueue        int `json:"storeQueue"`        // in-flight store entries (0 = DefaultStoreQueue)

	L1KB    int `json:"l1KB"`
	L1Assoc int `json:"l1Assoc"`
	L1Lat   int `json:"l1Lat"`
	L2KB    int `json:"l2KB"`
	L2Assoc int `json:"l2Assoc"`
	L2Lat   int `json:"l2Lat"`
	MemLat  int `json:"memLat"`

	// Predictor names the branch predictor: PredictorHybrid,
	// PredictorBimodal or PredictorGShare ("" = PredictorHybrid).
	Predictor string `json:"predictor"`
}

// Summary is the result of a timed execution: everything the design-space
// exploration engine ranks on, without the VM run details (whose printed
// output can be large and is already covered by validation). It is the
// artifact kind the pipeline's Simulate stage persists.
type Summary struct {
	// Machine names the simulated configuration.
	Machine string `json:"machine"`
	// Cycles, Instrs, and TimeSec summarize the timed execution.
	Cycles  uint64  `json:"cycles"`
	Instrs  uint64  `json:"instrs"`
	TimeSec float64 `json:"timeSec"`
	// L1 and L2 are the load-side data-cache access statistics; L1Store
	// and L2Store count store accesses separately so the load hit rates
	// are not diluted by store fills.
	L1      cache.Stats `json:"l1"`
	L2      cache.Stats `json:"l2"`
	L1Store cache.Stats `json:"l1Store,omitempty"`
	L2Store cache.Stats `json:"l2Store,omitempty"`
	// Branches and Mispredicts summarize branch prediction.
	Branches    uint64 `json:"branches"`
	Mispredicts uint64 `json:"mispredicts"`
}

// CPI returns cycles per instruction (0 when no cycles elapsed).
func (s Summary) CPI() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instrs)
}

// IPC returns instructions per cycle (0 when no cycles elapsed).
func (s Summary) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instrs) / float64(s.Cycles)
}

// BranchAcc returns the branch prediction accuracy (1 when no branch
// executed).
func (s Summary) BranchAcc() float64 {
	if s.Branches == 0 {
		return 1
	}
	return 1 - float64(s.Mispredicts)/float64(s.Branches)
}

// Simulate runs prog on the configured machine model. setup (optional)
// installs workload inputs into the VM before execution. A nonzero
// maxInstrs bounds the simulated execution; a run that exhausts the
// budget is a valid (truncated) measurement, not an error — sampled
// simulation is how design-space sweeps stay affordable.
func Simulate(prog *isa.Program, setup func(*vm.VM) error, cfg Config, maxInstrs uint64) (Summary, error) {
	res, err := SimulateMany(prog, setup, []Config{cfg}, maxInstrs)
	if err != nil {
		return Summary{}, err
	}
	return res[0], nil
}

// SimulateMany times prog on every configuration in one interpretation:
// a single traced VM run feeds each dynamic instruction to a shared front
// end and then to one timing back end per config, and the back ends share
// the program's static-site table. Result i is exactly what
// Simulate(prog, setup, cfgs[i], maxInstrs) returns, and a config Simulate
// would reject fails the whole call with the same error. This is Hill &
// Smith's single-pass evaluation applied to whole machines: a design-space
// sweep pays for interpretation once per program instead of once per
// design point, and for each distinct cache geometry and branch predictor
// once instead of once per config (see frontEnd). Every back end lives for
// the whole run, so memory grows with len(cfgs); callers bound it.
func SimulateMany(prog *isa.Program, setup func(*vm.VM) error, cfgs []Config, maxInstrs uint64) ([]Summary, error) {
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if prog.ISA != cfg.ISA {
			return nil, fmt.Errorf("cpu: program compiled for %s, machine %s wants %s",
				prog.ISA.Name, cfg.Name, cfg.ISA.Name)
		}
	}
	m := vm.New(prog)
	if setup != nil {
		if err := setup(m); err != nil {
			return nil, err
		}
	}

	// Every config matches prog's ISA, so the group is all EPIC or all
	// out-of-order.
	sites := buildSites(prog, m.Layout())
	maxRegs := 0
	for _, f := range prog.Funcs {
		maxRegs = max(maxRegs, f.NumRegs)
	}
	fe := newFrontEnd(cfgs)
	// The back ends are held by concrete type, so the per-instruction loop
	// makes direct calls, and the trace consumer is built for the group's
	// one model kind: Go keeps no register live across a call, so every
	// value the loop holds is reloaded after each call it makes, and a
	// lean loop is what keeps a one-config group as fast as a fused model.
	// The loop is event-major: each executed instruction goes through the
	// front end and then every back end before the next one.
	var (
		trace      func(*vm.Trace)
		oooModels  []*ooOModel
		epicModels []*epicModel
	)
	for i, cfg := range cfgs {
		if cfg.ISA.EPIC {
			epicModels = append(epicModels, newEPICModel(maxRegs, cfg, fe.slots[i]))
		} else {
			oooModels = append(oooModels, newOoOModel(len(sites), maxRegs, cfg, fe.slots[i]))
		}
	}
	// Each segment's sites run in order; a load or store takes the next
	// address, and only the closing site can be a branch.
	if len(epicModels) > 0 {
		trace = func(t *vm.Trace) {
			a := 0
			for _, sg := range t.Segs {
				for s := sg.First; s < sg.First+sg.N; s++ {
					si := &sites[s]
					var addr uint64
					if si.kind-kindLoad <= kindBranch-kindLoad {
						if si.kind != kindBranch {
							addr = t.Addrs[a]
							a++
						}
						fe.observe(addr, sg.Taken, si)
					}
					for _, md := range epicModels {
						md.observe(addr, si)
					}
				}
			}
		}
	} else {
		trace = func(t *vm.Trace) {
			a := 0
			for _, sg := range t.Segs {
				for s := sg.First; s < sg.First+sg.N; s++ {
					si := &sites[s]
					var addr uint64
					if si.kind-kindLoad <= kindBranch-kindLoad {
						if si.kind != kindBranch {
							addr = t.Addrs[a]
							a++
						}
						fe.observe(addr, sg.Taken, si)
					}
					for _, md := range oooModels {
						md.observe(s, addr, si)
					}
				}
			}
		}
	}
	runRes, err := m.Run(vm.Config{Trace: trace, MaxInstrs: maxInstrs})
	if err != nil {
		t, ok := err.(*vm.Trap)
		if !ok || maxInstrs == 0 || t.Reason != vm.TrapBudgetExhausted {
			return nil, err
		}
		// Instruction budget exhausted: keep the truncated measurement.
	}
	cycles := make([]uint64, len(cfgs))
	for i, md := range oooModels {
		cycles[i] = md.cycles()
	}
	for i, md := range epicModels {
		cycles[i] = md.cycles()
	}
	out := make([]Summary, len(cfgs))
	for i, cfg := range cfgs {
		res := fe.finish(fe.slots[i], cycles[i])
		res.Machine = cfg.Name
		res.Instrs = runRes.DynInstrs
		if cfg.FreqGHz > 0 {
			res.TimeSec = float64(res.Cycles) / (cfg.FreqGHz * 1e9)
		}
		out[i] = res
	}
	return out, nil
}

// Hit levels a front-end hierarchy reports for a load or store: the
// level that held the line. A back end indexes its latencies with it.
const (
	levelL1 = iota
	levelL2
	levelMem
)

// frontEnd is the timing-independent half of a SimulateMany group. Every
// load and store touches the cache in program order, and every branch is
// predicted and trained in program order, so the hit level and the
// mispredict bit depend only on the cache geometry and the predictor, not
// on any back end's timing. The front end therefore holds one hierarchy
// per distinct geometry and one predictor per distinct predictor, feeds
// each event to them once, and leaves the outcome in a slot the back ends
// read. In the calibration sweep all eight configs of a group share one
// of each.
type frontEnd struct {
	hiers []*cache.Hierarchy
	preds []bpred.Predictor
	// level holds, per hierarchy, the hit level of the last load or store.
	level []uint8
	// mispredicted holds, per predictor, whether the last branch
	// mispredicted; mispredicts counts them.
	mispredicted []bool
	mispredicts  []uint64
	branches     uint64
	// slots[i] locates config i's hierarchy and predictor.
	slots []feSlot
}

// feSlot is one config's view of the front end: pointers at the outcome
// of its own hierarchy and predictor for the current event, and their
// indexes for the final statistics.
type feSlot struct {
	level        *uint8
	mispredicted *bool
	hier, pred   int
}

// geometry is the part of a Config that shapes cache hit levels.
type geometry struct{ l1KB, l1Assoc, l2KB, l2Assoc int }

func newFrontEnd(cfgs []Config) *frontEnd {
	fe := &frontEnd{slots: make([]feSlot, len(cfgs))}
	hierOf := map[geometry]int{}
	predOf := map[string]int{}
	for i, cfg := range cfgs {
		g := geometry{cfg.L1KB, cfg.L1Assoc, cfg.L2KB, cfg.L2Assoc}
		h, ok := hierOf[g]
		if !ok {
			h = len(fe.hiers)
			hierOf[g] = h
			fe.hiers = append(fe.hiers, newHierarchy(cfg))
		}
		name := cfg.predictorName()
		p, ok := predOf[name]
		if !ok {
			p = len(fe.preds)
			predOf[name] = p
			fe.preds = append(fe.preds, PredictorByName(name)())
		}
		fe.slots[i] = feSlot{hier: h, pred: p}
	}
	fe.level = make([]uint8, len(fe.hiers))
	fe.mispredicted = make([]bool, len(fe.preds))
	fe.mispredicts = make([]uint64, len(fe.preds))
	for i := range fe.slots {
		s := &fe.slots[i]
		s.level, s.mispredicted = &fe.level[s.hier], &fe.mispredicted[s.pred]
	}
	return fe
}

// observe runs a load or store at addr through every hierarchy, or a
// branch with outcome taken through every predictor. SimulateMany calls
// it for those kinds only.
func (fe *frontEnd) observe(addr uint64, taken bool, si *siteInfo) {
	switch si.kind {
	case kindLoad:
		for i, h := range fe.hiers {
			fe.level[i] = uint8(h.AccessLatency(addr))
		}
	case kindStore:
		for i, h := range fe.hiers {
			fe.level[i] = uint8(h.StoreLatency(addr))
		}
	case kindBranch:
		fe.branches++
		for i, p := range fe.preds {
			miss := p.Predict(si.pc) != taken
			p.Update(si.pc, taken)
			fe.mispredicted[i] = miss
			if miss {
				fe.mispredicts[i]++
			}
		}
	}
}

// finish builds a config's result from its back end's cycle count and its
// slot's cache and branch statistics.
func (fe *frontEnd) finish(s feSlot, cycles uint64) Summary {
	h := fe.hiers[s.hier]
	return Summary{
		Cycles:      cycles,
		L1:          h.L1.Stats,
		L2:          h.L2.Stats,
		L1Store:     h.L1.StoreStats,
		L2Store:     h.L2.StoreStats,
		Branches:    fe.branches,
		Mispredicts: fe.mispredicts[s.pred],
	}
}

// latencyFor returns the fixed functional-unit latency per class (loads and
// stores are handled separately through the cache hierarchy).
func latencyFor(class isa.Class) uint64 {
	switch class {
	case isa.ClassIntALU, isa.ClassOther:
		return 1
	case isa.ClassIntMul:
		return 3
	case isa.ClassIntDiv:
		return 20
	case isa.ClassFPAdd:
		return 3
	case isa.ClassFPMul:
		return 5
	case isa.ClassFPDiv:
		return 24
	case isa.ClassBranch, isa.ClassJump:
		return 1
	case isa.ClassCall, isa.ClassRet:
		return 2
	case isa.ClassSys:
		return 12
	}
	return 1
}

// newHierarchy builds cfg's cache geometry for the front end. Its
// "latencies" are the hit levels, so AccessLatency and StoreLatency report
// which level held the line and each back end applies its own latencies.
func newHierarchy(cfg Config) *cache.Hierarchy {
	return &cache.Hierarchy{
		L1: cache.New(cache.Config{
			Name: "L1D", Size: cfg.L1KB * 1024, LineSize: 32, Assoc: max(cfg.L1Assoc, 1),
		}),
		L2: cache.New(cache.Config{
			Name: "L2", Size: cfg.L2KB * 1024, LineSize: 32, Assoc: max(cfg.L2Assoc, 1),
		}),
		L1Lat:  levelL1,
		L2Lat:  levelL2,
		MemLat: levelMem,
	}
}

// BranchPC is the stable synthetic PC of the static branch site at
// (fn, block, index): the address every branch predictor indexes by.
func BranchPC(fn, block, index int) uint64 {
	return uint64(fn)<<24 ^ uint64(block)<<10 ^ uint64(index)
}

// siteInfo is the per-static-site metadata both timing models need for
// every dynamic instruction. It is precomputed once per simulation and
// indexed by site ID, so observe never walks program structure, decodes
// use/def operands, or hashes a map on the hot path.
type siteInfo struct {
	pc          uint64 // kindBranch: synthetic predictor PC
	bkey        uint64 // EPIC bundle identity: block ID << 20 | bundle
	lat         uint32 // fixed functional-unit latency (non-memory)
	u1, u2, def isa.RegID
	kind        uint8
}

// Site kinds. The front end's kinds, kindLoad through kindBranch, are
// consecutive, so one compare selects them.
const (
	kindOther = iota
	kindLoad
	kindStore
	kindBranch
	kindCall
	kindRet
)

func buildSites(prog *isa.Program, lay *vm.Layout) []siteInfo {
	sites := make([]siteInfo, lay.NumSites())
	lay.Walk(func(s int, loc vm.SiteLoc, in *isa.Instr) {
		si := &sites[s]
		si.u1, si.u2, si.def = ir.UseDef2(in)
		si.lat = uint32(latencyFor(in.Class()))
		switch in.Op {
		case isa.LD, isa.LDL:
			si.kind = kindLoad
		case isa.ST, isa.STL:
			si.kind = kindStore
		case isa.BR:
			si.kind = kindBranch
			si.pc = BranchPC(loc.Func, loc.Block, loc.Index)
		case isa.CALL:
			si.kind = kindCall
		case isa.RET:
			si.kind = kindRet
		}
		blk := prog.Funcs[loc.Func].Blocks[loc.Block]
		bundleID := loc.Index // unscheduled code: every instruction its own bundle
		if blk.Bundle != nil {
			bundleID = blk.Bundle[loc.Index]
		}
		si.bkey = uint64(lay.BlockID(loc.Func, loc.Block))<<20 | uint64(bundleID)&(1<<20-1)
	})
	return sites
}

// DefaultStoreQueue is the store-queue depth used when Config.StoreQueue
// is zero.
const DefaultStoreQueue = 16

// lineShift matches the 32-byte line size newHierarchy configures: store
// queue entries and load conflict checks work at cache-line granularity,
// which is the granularity a real store buffer's partial-overlap CAM
// collapses to in the common case.
const lineShift = 5

// storeEntry is one in-flight store in the store queue: its cache line,
// the cycle its data became available (forwardable to younger loads), and
// the cycle it completes through the memory hierarchy (its queue entry
// frees and conservative in-order loads stop waiting on it).
type storeEntry struct {
	line      uint64
	dataReady uint64
	done      uint64
}

// wrap reduces a ring index i < 2n into [0, n). Ring positions are a head
// plus a count no larger than the ring, so one compare replaces the
// integer division of i % n on the per-instruction path.
func wrap(i, n int) int {
	if i >= n {
		return i - n
	}
	return i
}

// storeQueue is the bounded in-flight store window both timing models
// share. Stores enter at dispatch with a real hierarchy completion time
// instead of retiring in a cycle; a full queue stalls dispatch until the
// oldest store drains, and younger loads search it newest-first for
// same-line conflicts.
type storeQueue struct {
	q     []storeEntry
	head  int
	count int
}

func newStoreQueue(n int) storeQueue {
	if n <= 0 {
		n = DefaultStoreQueue
	}
	return storeQueue{q: make([]storeEntry, n)}
}

// drain retires entries completed at or before now.
func (sq *storeQueue) drain(now uint64) {
	for sq.count > 0 && sq.q[sq.head].done <= now {
		sq.head = wrap(sq.head+1, len(sq.q))
		sq.count--
	}
}

func (sq *storeQueue) full() bool { return sq.count == len(sq.q) }

// oldestDone returns the completion time of the oldest in-flight store
// (0 when empty).
func (sq *storeQueue) oldestDone() uint64 {
	if sq.count == 0 {
		return 0
	}
	return sq.q[sq.head].done
}

// push enters a store (the caller guarantees space via drain/full).
func (sq *storeQueue) push(e storeEntry) {
	sq.q[wrap(sq.head+sq.count, len(sq.q))] = e
	sq.count++
}

// match returns the newest in-flight store on line still incomplete at
// time t.
func (sq *storeQueue) match(line uint64, t uint64) (storeEntry, bool) {
	for i := sq.count - 1; i >= 0; i-- {
		e := sq.q[wrap(sq.head+i, len(sq.q))]
		if e.line == line && e.done > t {
			return e, true
		}
	}
	return storeEntry{}, false
}

// regFile is the frame-versioned register-ready table both models use.
// VM registers are per-frame, so readiness keyed by bare RegID would alias
// a callee's r3 with the caller's unrelated r3 across CALL/RET; each
// frame gets a stamp, and a register's readiness only applies when its
// stamp matches the current frame. A CALL's return-value register is
// defined when the matching RET resolves, in the caller's frame.
type regFile struct {
	regs  []regState
	frame uint32
	next  uint32
	calls []frameRet
}

// frameRet records, per active call, the caller's frame stamp and the
// caller register the callee's RET defines.
type frameRet struct {
	frame uint32
	ret   isa.RegID
}

// regState is one register's ready time and the stamp of the frame that
// defined it, side by side so a lookup touches one cache line.
type regState struct {
	ready uint64
	stamp uint32
}

func newRegFile(maxRegs int) regFile {
	return regFile{regs: make([]regState, maxRegs+1)}
}

// readyAt folds register r's readiness into start (identity when r is
// unwritten in the current frame).
func (rf *regFile) readyAt(r isa.RegID, start uint64) uint64 {
	if r != isa.NoReg {
		if st := rf.regs[r]; st.stamp == rf.frame && st.ready > start {
			return st.ready
		}
	}
	return start
}

// define marks register r ready at time t in the current frame.
func (rf *regFile) define(r isa.RegID, t uint64) {
	if r != isa.NoReg {
		rf.regs[r] = regState{ready: t, stamp: rf.frame}
	}
}

// call enters a new frame; ret is the caller register the matching RET
// will define.
func (rf *regFile) call(ret isa.RegID) {
	rf.calls = append(rf.calls, frameRet{frame: rf.frame, ret: ret})
	rf.next++
	rf.frame = rf.next
}

// ret leaves the current frame, defining the recorded return register in
// the caller's frame at time t.
func (rf *regFile) ret(t uint64) {
	n := len(rf.calls)
	if n == 0 {
		return // program-exit RET of main
	}
	fr := rf.calls[n-1]
	rf.calls = rf.calls[:n-1]
	rf.frame = fr.frame
	rf.define(fr.ret, t)
}

// memLatencies maps a front-end hit level to cfg's latency in cycles.
func memLatencies(cfg Config) [3]uint64 {
	return [3]uint64{levelL1: uint64(cfg.L1Lat), levelL2: uint64(cfg.L2Lat), levelMem: uint64(cfg.MemLat)}
}

// ooOModel is the out-of-order window back end.
type ooOModel struct {
	width, l1Lat, penalty uint64    // the config's dispatch width, L1 latency and mispredict penalty
	memLat                [3]uint64 // per hit level
	fe                    feSlot

	cycle          uint64 // current fetch cycle
	fetchedThis    uint64 // instructions dispatched in the current cycle
	regs           regFile
	sq             storeQueue
	depTrained     []bool   // per load site: store-set predictor entry
	rob            []uint64 // completion times, ring buffer of ROB size
	robPos         int      // the oldest entry, which the next dispatch replaces
	lastCompletion uint64
}

func newOoOModel(numSites, maxRegs int, cfg Config, fe feSlot) *ooOModel {
	return &ooOModel{
		width:      uint64(cfg.Width),
		l1Lat:      uint64(cfg.L1Lat),
		penalty:    uint64(cfg.MispredictPenalty),
		memLat:     memLatencies(cfg),
		fe:         fe,
		regs:       newRegFile(maxRegs),
		sq:         newStoreQueue(cfg.StoreQueue),
		depTrained: make([]bool, numSites),
		rob:        make([]uint64, max(cfg.ROB, 8)),
	}
}

// observe times the instruction at site, with data address addr when it
// is a load or store.
func (m *ooOModel) observe(site int32, addr uint64, si *siteInfo) {
	// Dispatch: bounded by width and ROB occupancy.
	if m.fetchedThis >= m.width {
		m.cycle++
		m.fetchedThis = 0
	}
	// The instruction takes the oldest entry's place, waiting for it to
	// complete if the ROB is full (entries are zero while it fills).
	if head := m.rob[m.robPos]; head > m.cycle {
		m.cycle = head
		m.fetchedThis = 0
	}
	m.fetchedThis++

	start := m.regs.readyAt(si.u1, m.cycle)
	start = m.regs.readyAt(si.u2, start)

	var lat uint64
	switch si.kind {
	case kindLoad:
		line := addr >> lineShift
		if e, ok := m.sq.match(line, start); ok {
			// An older store to the same line is in flight: forward its
			// data. The load probed the cache in parallel (the front end
			// counted the access), but the store queue supplies the value.
			// The store-set predictor learns the conflict: the first time
			// a load site hits one it has speculatively bypassed the
			// store and replays; once trained, the site waits for the
			// store data and pays only the forwarding latency.
			data := max(start, e.dataReady) + m.l1Lat
			if !m.depTrained[site] {
				m.depTrained[site] = true
				data += m.penalty
			}
			lat = data - start
		} else {
			lat = m.memLat[*m.fe.level]
		}
	case kindStore:
		// Stores occupy a queue entry until the written line completes
		// through the hierarchy; a full queue stalls dispatch until the
		// oldest drains. Retirement itself costs one cycle — the latency
		// lives in the queue, where loads and in-order issue can see it.
		m.sq.drain(start)
		if m.sq.full() {
			od := m.sq.oldestDone()
			if od > m.cycle {
				m.cycle = od
				m.fetchedThis = 0
			}
			if od > start {
				start = od
			}
			m.sq.drain(start)
		}
		m.sq.push(storeEntry{
			line:      addr >> lineShift,
			dataReady: start,
			done:      start + m.memLat[*m.fe.level],
		})
		lat = 1
	default:
		lat = uint64(si.lat)
	}
	done := start + lat

	if si.kind == kindBranch && *m.fe.mispredicted {
		// Front end restarts after the branch resolves.
		refill := done + m.penalty
		if refill > m.cycle {
			m.cycle = refill
			m.fetchedThis = 0
		}
	}

	switch si.kind {
	case kindCall:
		m.regs.call(si.def)
	case kindRet:
		m.regs.ret(done)
	default:
		m.regs.define(si.def, done)
	}
	if done > m.lastCompletion {
		m.lastCompletion = done
	}
	// Enter the ROB.
	m.rob[m.robPos] = done
	m.robPos = wrap(m.robPos+1, len(m.rob))
}

func (m *ooOModel) cycles() uint64 { return max(m.cycle, m.lastCompletion) }

// epicModel is the in-order back end: it issues statically scheduled
// bundles in order.
type epicModel struct {
	l1Lat, penalty uint64    // the config's L1 latency and mispredict penalty
	memLat         [3]uint64 // per hit level
	fe             feSlot

	cycle          uint64
	regs           regFile
	sq             storeQueue
	lastCompletion uint64

	// Current bundle identity: instructions whose site shares a bkey
	// ((func, block, bundle id) packed by buildSites) issue together.
	curKey uint64
}

func newEPICModel(maxRegs int, cfg Config, fe feSlot) *epicModel {
	return &epicModel{
		l1Lat:   uint64(cfg.L1Lat),
		penalty: uint64(cfg.MispredictPenalty),
		memLat:  memLatencies(cfg),
		fe:      fe,
		regs:    newRegFile(maxRegs),
		sq:      newStoreQueue(cfg.StoreQueue),
		curKey:  ^uint64(0), // no bundle yet
	}
}

// observe issues the instruction of si, with data address addr when it
// is a load or store.
func (m *epicModel) observe(addr uint64, si *siteInfo) {
	if si.bkey != m.curKey {
		m.cycle++ // one bundle per cycle baseline
		m.curKey = si.bkey
	}

	// In-order stall: the whole machine waits for this bundle's inputs.
	start := m.regs.readyAt(si.u1, m.cycle)
	start = m.regs.readyAt(si.u2, start)
	if start > m.cycle {
		m.cycle = start // stall cycles
	}

	var lat uint64
	switch si.kind {
	case kindLoad:
		// Conservative in-order rule: a load may not issue past an
		// unresolved older store to the same line. There is no forwarding
		// network — the machine stalls until the store has executed and
		// written the cache (one L1 latency past its data being ready),
		// then the load replays and pays its own cache access.
		if e, ok := m.sq.match(addr>>lineShift, m.cycle); ok {
			if t := e.dataReady + m.l1Lat; t > m.cycle {
				m.cycle = t
			}
		}
		lat = m.memLat[*m.fe.level]
	case kindStore:
		m.sq.drain(m.cycle)
		if m.sq.full() {
			if od := m.sq.oldestDone(); od > m.cycle {
				m.cycle = od
			}
			m.sq.drain(m.cycle)
		}
		m.sq.push(storeEntry{
			line:      addr >> lineShift,
			dataReady: m.cycle,
			done:      m.cycle + m.memLat[*m.fe.level],
		})
		lat = 1
	default:
		lat = uint64(si.lat)
	}
	done := m.cycle + lat

	if si.kind == kindBranch && *m.fe.mispredicted {
		m.cycle = done + m.penalty
	}

	switch si.kind {
	case kindCall:
		m.regs.call(si.def)
	case kindRet:
		m.regs.ret(done)
	default:
		m.regs.define(si.def, done)
	}
	if done > m.lastCompletion {
		m.lastCompletion = done
	}
}

func (m *epicModel) cycles() uint64 { return max(m.cycle, m.lastCompletion) }
