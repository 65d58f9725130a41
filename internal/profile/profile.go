// Package profile implements the profiling step of the framework
// (Section III.A): it executes a workload compiled at a low optimization
// level under the VM's instrumentation hook (the Pin substitute) and
// produces the statistical profile — the SFGL with loop annotation, branch
// taken/transition rates, per-access cache behavior quantized into the
// Table I classes, and the instruction mix.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/cache"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/sfgl"
	"repro/internal/vm"
)

// Options configures profiling.
type Options struct {
	// Cache is the configuration simulated during profiling to classify
	// memory accesses (Section III.A.3). The zero value selects the
	// default 8KB 2-way cache with 32-byte lines.
	Cache cache.Config
	// MaxInstrs bounds the profiled execution (0 = VM default).
	MaxInstrs uint64
}

// DefaultCache is the profiling cache configuration.
var DefaultCache = cache.Config{Name: "profile-8KB", Size: 8 * 1024, LineSize: 32, Assoc: 2}

// WideCache returns the wide profiling cache derived from the primary
// one: 8x the capacity at doubled associativity. Per-site miss rates at
// this second point bound each access stream's working set — a site that
// misses the primary cache but fits the wide one is locality-bound, not
// streaming, and the synthesizer sizes its walker's range accordingly.
func WideCache(c cache.Config) cache.Config {
	return cache.Config{
		Name:     c.Name + "-wide",
		Size:     c.Size * 8,
		LineSize: c.LineSize,
		Assoc:    c.Assoc * 2,
	}
}

// Profile is the statistical profile of one workload execution.
type Profile struct {
	Workload string      `json:"workload"`
	Graph    *sfgl.Graph `json:"graph"`
	TotalDyn uint64      `json:"totalDyn"`
	// Mix counts executed instructions per class.
	Mix [isa.NumClasses]uint64 `json:"mix"`
	// CacheCfg documents the profiling cache.
	CacheCfg cache.Config `json:"cacheCfg"`
	// Output of the profiled run (for sanity checks).
	OutputHash uint64 `json:"outputHash"`
}

// MixFractions returns the instruction-mix fractions of Fig. 6: loads,
// stores, branches (conditional), and everything else.
func (p *Profile) MixFractions() (loads, stores, branches, others float64) {
	total := float64(p.TotalDyn)
	if total == 0 {
		return 0, 0, 0, 0
	}
	loads = float64(p.Mix[isa.ClassLoad]) / total
	stores = float64(p.Mix[isa.ClassStore]) / total
	branches = float64(p.Mix[isa.ClassBranch]) / total
	others = 1 - loads - stores - branches
	return loads, stores, branches, others
}

// blockKey identifies a static basic block.
type blockKey struct{ fn, block int }

// memStat tracks one static memory instruction's cache behavior and its
// stride stream: the top-K address deltas (space-saving counters), the
// stride-repeat count, and a tiny recent-line window for the coarse reuse
// summary. All per-access updates are O(1) in the number of tracked
// strides, so stream profiling does not change Collect's complexity.
type memStat struct {
	accesses, misses uint64
	missesWide       uint64

	last     uint64 // previous address
	lastStr  int64  // previous stride
	haveLast bool
	haveStr  bool
	repeats  uint64 // transitions whose stride repeated the previous one

	strides [sfgl.StreamStrides]strideCounter
	nStride int

	recent    [reuseWindow]uint64 // recently touched line addresses
	recentLen int
	recentPos int
	reuseHits uint64
}

// strideCounter is one space-saving bucket of a site's stride histogram.
type strideCounter struct {
	stride int64
	count  uint64
}

// reuseWindow is the recent-line window size behind Stream.ShortReuse.
const reuseWindow = 4

// note records one access at addr with its outcomes at the profiling
// cache and at the wide (8x) cache bounding the site's working set.
func (ms *memStat) note(addr uint64, miss, missWide bool, lineSize int) {
	ms.accesses++
	if miss {
		ms.misses++
	}
	if missWide {
		ms.missesWide++
	}

	line := addr / uint64(lineSize)
	hit := false
	for i := 0; i < ms.recentLen; i++ {
		if ms.recent[i] == line {
			hit = true
			break
		}
	}
	if hit {
		ms.reuseHits++
	} else {
		ms.recent[ms.recentPos] = line
		ms.recentPos = (ms.recentPos + 1) % reuseWindow
		if ms.recentLen < reuseWindow {
			ms.recentLen++
		}
	}

	if ms.haveLast {
		stride := int64(addr) - int64(ms.last)
		if ms.haveStr && stride == ms.lastStr {
			ms.repeats++
		}
		ms.lastStr, ms.haveStr = stride, true
		ms.bump(stride)
	}
	ms.last, ms.haveLast = addr, true
}

// bump counts one stride transition, evicting the smallest bucket when the
// table is full (space-saving: the newcomer inherits the evicted count, so
// frequent strides cannot be starved by a long irregular tail).
func (ms *memStat) bump(stride int64) {
	minAt := 0
	for i := 0; i < ms.nStride; i++ {
		if ms.strides[i].stride == stride {
			ms.strides[i].count++
			return
		}
		if ms.strides[i].count < ms.strides[minAt].count {
			minAt = i
		}
	}
	if ms.nStride < len(ms.strides) {
		ms.strides[ms.nStride] = strideCounter{stride: stride, count: 1}
		ms.nStride++
		return
	}
	ms.strides[minAt] = strideCounter{stride: stride, count: ms.strides[minAt].count + 1}
}

// stream summarizes the collected state as a serializable descriptor.
func (ms *memStat) stream() *sfgl.Stream {
	s := &sfgl.Stream{
		V:        sfgl.StreamVersion,
		Accesses: ms.accesses,
		MissRate: float64(ms.misses) / float64(ms.accesses),
		MissWide: float64(ms.missesWide) / float64(ms.accesses),
	}
	transitions := ms.accesses - 1
	if transitions > 0 {
		s.Regularity = float64(ms.repeats) / float64(transitions)
		bins := append([]strideCounter(nil), ms.strides[:ms.nStride]...)
		sort.Slice(bins, func(i, j int) bool {
			if bins[i].count != bins[j].count {
				return bins[i].count > bins[j].count
			}
			return bins[i].stride < bins[j].stride
		})
		for _, b := range bins {
			s.Strides = append(s.Strides, sfgl.StrideBin{
				Stride: b.stride,
				Frac:   float64(b.count) / float64(transitions),
			})
		}
	}
	s.ShortReuse = float64(ms.reuseHits) / float64(ms.accesses)
	return s
}

// branchStat tracks one static conditional branch.
type branchStat struct {
	taken, total, transitions uint64
	last                      bool
	any                       bool
}

// Collect profiles a compiled program. setup (optional) installs workload
// inputs before the run.
func Collect(prog *isa.Program, setup func(*vm.VM) error, name string, opts Options) (*Profile, error) {
	if opts.Cache == (cache.Config{}) {
		opts.Cache = DefaultCache
	}
	m := vm.New(prog)
	if setup != nil {
		if err := setup(m); err != nil {
			return nil, err
		}
	}

	c := cache.New(opts.Cache)
	cWide := cache.New(WideCache(opts.Cache))
	callCounts := make([]uint64, len(prog.Funcs))
	var mix [isa.NumClasses]uint64
	var total uint64

	// Per-event state is dense, indexed by the VM's static-site and block
	// IDs (see vm.Layout): the hook does pure slice arithmetic, no map
	// lookups. siteKind collapses the opcode dispatch to one byte per site.
	lay := vm.LayoutOf(prog)
	nSites, nBlocks := lay.NumSites(), lay.NumBlocks()
	classBySite := make([]isa.Class, nSites)
	kindBySite := make([]uint8, nSites)
	blockBySite := make([]int32, nSites)
	entryBySite := make([]bool, nSites) // first instruction of its block
	siteSym := make([]int32, nSites)    // CALL callee index
	const (
		siteOther = iota
		siteMem
		siteBR
		siteJMP
		siteCALL
	)
	for s := 0; s < nSites; s++ {
		in := lay.Instr(s)
		loc := lay.Loc(s)
		classBySite[s] = in.Class()
		blockBySite[s] = int32(lay.BlockID(loc.Func, loc.Block))
		entryBySite[s] = loc.Index == 0
		switch in.Op {
		case isa.LD, isa.ST, isa.LDL, isa.STL:
			kindBySite[s] = siteMem
		case isa.BR:
			kindBySite[s] = siteBR
		case isa.JMP:
			kindBySite[s] = siteJMP
		case isa.CALL:
			kindBySite[s] = siteCALL
			siteSym[s] = in.Sym
		}
	}
	blockCounts := make([]uint64, nBlocks)
	memStats := make([]memStat, nSites)
	branchStats := make([]branchStat, nBlocks)
	// Edge counts per originating block: the taken arm is Succs[0] (BR
	// taken and JMP), the fall-through arm Succs[1] (BR not taken).
	edgeTaken := make([]uint64, nBlocks)
	edgeNot := make([]uint64, nBlocks)
	lineSize := opts.Cache.LineSize

	hook := func(ev *vm.Event) {
		total++
		s := ev.Site
		mix[classBySite[s]]++
		if entryBySite[s] {
			blockCounts[blockBySite[s]]++
		}
		switch kindBySite[s] {
		case siteMem:
			miss := !c.Access(ev.Addr)
			missWide := !cWide.Access(ev.Addr)
			memStats[s].note(ev.Addr, miss, missWide, lineSize)
		case siteBR:
			bs := &branchStats[blockBySite[s]]
			bs.total++
			if ev.Taken {
				bs.taken++
				edgeTaken[blockBySite[s]]++
			} else {
				edgeNot[blockBySite[s]]++
			}
			if bs.any && ev.Taken != bs.last {
				bs.transitions++
			}
			bs.last = ev.Taken
			bs.any = true
		case siteJMP:
			edgeTaken[blockBySite[s]]++
		case siteCALL:
			callCounts[siteSym[s]]++
		}
	}

	res, err := m.Run(vm.Config{Hook: hook, MaxInstrs: opts.MaxInstrs})
	if err != nil {
		return nil, fmt.Errorf("profile: %s: %w", name, err)
	}

	// Re-key the dense run state by static location for graph construction
	// (cold: one pass over static sites and blocks).
	blockCountsM := make(map[blockKey]uint64)
	branchStatsM := make(map[blockKey]*branchStat)
	edgeCounts := make(map[[2]int]uint64)
	bid := 0
	for fi, f := range prog.Funcs {
		for bi, blk := range f.Blocks {
			if blockCounts[bid] > 0 {
				blockCountsM[blockKey{fi, bi}] = blockCounts[bid]
			}
			if branchStats[bid].total > 0 {
				branchStatsM[blockKey{fi, bi}] = &branchStats[bid]
			}
			if edgeTaken[bid] > 0 {
				to := lay.BlockID(fi, blk.Succs[0])
				edgeCounts[[2]int{bid, to}] += edgeTaken[bid]
			}
			if edgeNot[bid] > 0 {
				to := lay.BlockID(fi, blk.Succs[1])
				edgeCounts[[2]int{bid, to}] += edgeNot[bid]
			}
			bid++
		}
	}
	memStatsM := make(map[[3]int]*memStat)
	for s := 0; s < nSites; s++ {
		if memStats[s].accesses > 0 {
			loc := lay.Loc(s)
			memStatsM[[3]int{loc.Func, loc.Block, loc.Index}] = &memStats[s]
		}
	}

	g := buildGraph(prog, blockCountsM, edgeCounts, memStatsM, branchStatsM, callCounts)
	return &Profile{
		Workload:   name,
		Graph:      g,
		TotalDyn:   total,
		Mix:        mix,
		CacheCfg:   opts.Cache,
		OutputHash: res.OutputHash,
	}, nil
}

// nodeID assigns a dense node ID per static block: blocks are numbered
// function by function in program order.
func nodeID(prog *isa.Program, fn, block int) int {
	id := 0
	for i := 0; i < fn; i++ {
		id += len(prog.Funcs[i].Blocks)
	}
	return id + block
}

func buildGraph(prog *isa.Program,
	blockCounts map[blockKey]uint64,
	edgeCounts map[[2]int]uint64,
	memStats map[[3]int]*memStat,
	branchStats map[blockKey]*branchStat,
	callCounts []uint64) *sfgl.Graph {

	g := &sfgl.Graph{FuncCalls: callCounts}
	for _, f := range prog.Funcs {
		g.FuncNames = append(g.FuncNames, f.Name)
	}

	// Nodes: one per static block, in nodeID order.
	for fi, f := range prog.Funcs {
		for bi, blk := range f.Blocks {
			n := &sfgl.Node{
				ID:    nodeID(prog, fi, bi),
				Func:  fi,
				Block: bi,
				Count: blockCounts[blockKey{fi, bi}],
			}
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				info := sfgl.InstrInfo{Op: in.Op, Class: in.Class(), MemClass: -1}
				if ms := memStats[[3]int{fi, bi, ii}]; ms != nil && ms.accesses > 0 {
					miss := float64(ms.misses) / float64(ms.accesses)
					info.MemClass = sfgl.MemClassFor(miss)
					info.Stream = ms.stream()
				}
				n.Instrs = append(n.Instrs, info)
			}
			if bs := branchStats[blockKey{fi, bi}]; bs != nil && bs.total > 0 {
				takenRate := float64(bs.taken) / float64(bs.total)
				transRate := 0.0
				if bs.total > 1 {
					transRate = float64(bs.transitions) / float64(bs.total-1)
				}
				n.Branch = &sfgl.BranchInfo{
					Taken:       bs.taken,
					Total:       bs.total,
					Transitions: bs.transitions,
					TakenRate:   takenRate,
					TransRate:   transRate,
					Hard:        transRate > 0.15 && transRate < 0.85,
				}
			}
			g.Nodes = append(g.Nodes, n)
		}
	}

	for k, c := range edgeCounts {
		g.Edges = append(g.Edges, &sfgl.Edge{From: k[0], To: k[1], Count: c})
	}
	sortEdges(g.Edges)

	// Loop annotation: natural loops on each function's static CFG, with
	// entry counts from edges entering the header from outside the loop.
	loopID := 0
	for fi, f := range prog.Funcs {
		forest := ir.FindLoops(ir.Succs(f), 0)
		// Map forest index -> global loop ID for parents.
		idOf := make([]int, len(forest.Loops))
		for li := range forest.Loops {
			idOf[li] = loopID + li
		}
		for li := range forest.Loops {
			l := &forest.Loops[li]
			headerID := nodeID(prog, fi, l.Header)
			iterations := blockCounts[blockKey{fi, l.Header}]
			var entries uint64
			inLoop := make(map[int]bool)
			for _, b := range l.Blocks {
				inLoop[nodeID(prog, fi, b)] = true
			}
			for k, c := range edgeCounts {
				if k[1] == headerID && !inLoop[k[0]] {
					entries += c
				}
			}
			parent := -1
			if l.Parent >= 0 {
				parent = idOf[l.Parent]
			}
			var nodes []int
			for _, b := range l.Blocks {
				nodes = append(nodes, nodeID(prog, fi, b))
			}
			g.Loops = append(g.Loops, &sfgl.Loop{
				ID:         idOf[li],
				Func:       fi,
				Header:     headerID,
				Nodes:      nodes,
				Parent:     parent,
				Depth:      l.Depth,
				Entries:    entries,
				Iterations: iterations,
			})
		}
		loopID += len(forest.Loops)
	}
	return g
}

func sortEdges(edges []*sfgl.Edge) {
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0 && less(edges[j], edges[j-1]); j-- {
			edges[j], edges[j-1] = edges[j-1], edges[j]
		}
	}
}

func less(a, b *sfgl.Edge) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	return a.To < b.To
}

// Save writes the profile as JSON.
func (p *Profile) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(p)
}

// Load reads a profile from JSON. Structurally broken payloads — no graph,
// or stream descriptors from an unknown version — are errors, never
// panics: profiles cross process boundaries (`synth synthesize -from`, the
// artifact store) and must fail loudly instead of synthesizing garbage.
func Load(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if p.Graph == nil {
		return nil, fmt.Errorf("profile: decode: missing graph")
	}
	if err := p.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	return &p, nil
}
