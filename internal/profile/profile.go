// Package profile implements the profiling step of the framework
// (Section III.A): it executes a workload compiled at a low optimization
// level under the VM's instrumentation trace (the Pin substitute) and
// produces the statistical profile — the SFGL with loop annotation, branch
// taken/transition rates, each memory site's cache behavior and stride
// stream, and the instruction mix.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/sfgl"
	"repro/internal/vm"
)

// The profiling point: every profile is taken, and every clone measured,
// on code compiled for Target at Level, with memory accesses classified
// (Section III.A.3) against DefaultCache. The paper profiles at a low
// optimization level (Section III.A) so the statistics describe the
// program rather than one compiler's output of it.
var (
	Target       = isa.AMD64
	DefaultCache = cache.Config{Name: "profile-8KB", Size: 8 * 1024, LineSize: 32, Assoc: 2}
)

// Level is the profiling point's optimization level.
const Level = compiler.O0

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
	// Output of the profiled run (for sanity checks).
	OutputHash uint64 `json:"outputHash"`
}

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

// Collect profiles a program compiled at the profiling point under
// DefaultCache. setup (optional) installs workload inputs before the run.
func Collect(prog *isa.Program, setup func(*vm.VM) error, name string) (*Profile, error) {
	m := vm.New(prog)
	if setup != nil {
		if err := setup(m); err != nil {
			return nil, err
		}
	}

	c := cache.New(DefaultCache)
	cWide := cache.New(WideCache(DefaultCache))
	callCounts := make([]uint64, len(prog.Funcs))
	var mix [isa.NumClasses]uint64
	var total uint64

	// All run state is dense, indexed by the VM's static-site and block
	// IDs (see vm.Layout): the trace consumer does pure slice arithmetic,
	// and the SFGL is built from the same slices. siteKind collapses the
	// opcode dispatch to one byte per site.
	lay := m.Layout()
	nSites, nBlocks := lay.NumSites(), lay.NumBlocks()
	classBySite := lay.Classes()
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
	lay.Walk(func(s int, loc vm.SiteLoc, in *isa.Instr) {
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
	})
	blockCounts := make([]uint64, nBlocks)
	memStats := make([]memStat, nSites)
	branchStats := make([]branchStat, nBlocks)
	// Edge counts per originating block: the taken arm is Succs[0] (BR
	// taken and JMP), the fall-through arm Succs[1] (BR not taken).
	edgeTaken := make([]uint64, nBlocks)
	edgeNot := make([]uint64, nBlocks)
	lineSize := DefaultCache.LineSize

	// A segment enters a block only at its first site, and only its
	// closing site can branch, jump or call: block entries, mix and
	// memory statistics are per site, control bookkeeping per segment.
	trace := func(t *vm.Trace) {
		addrs := t.Addrs
		for _, sg := range t.Segs {
			first, last := int(sg.First), int(sg.First+sg.N-1)
			total += uint64(sg.N)
			if entryBySite[first] {
				blockCounts[blockBySite[first]]++
			}
			for s := first; s <= last; s++ {
				mix[classBySite[s]]++
				if kindBySite[s] == siteMem {
					a := addrs[0]
					addrs = addrs[1:]
					miss := !c.Access(a)
					missWide := !cWide.Access(a)
					memStats[s].note(a, miss, missWide, lineSize)
				}
			}
			switch kindBySite[last] {
			case siteBR:
				bs := &branchStats[blockBySite[last]]
				bs.total++
				if sg.Taken {
					bs.taken++
					edgeTaken[blockBySite[last]]++
				} else {
					edgeNot[blockBySite[last]]++
				}
				if bs.any && sg.Taken != bs.last {
					bs.transitions++
				}
				bs.last = sg.Taken
				bs.any = true
			case siteJMP:
				edgeTaken[blockBySite[last]]++
			case siteCALL:
				callCounts[siteSym[last]]++
			}
		}
	}

	res, err := m.Run(vm.Config{Trace: trace})
	if err != nil {
		return nil, fmt.Errorf("profile: %s: %w", name, err)
	}

	g := buildGraph(prog, lay, blockCounts, edgeTaken, edgeNot, memStats, branchStats, callCounts)
	return &Profile{
		Workload:   name,
		Graph:      g,
		TotalDyn:   total,
		Mix:        mix,
		OutputHash: res.OutputHash,
	}, nil
}

// buildGraph builds the SFGL from one run's dense state: block entries,
// taken- and fall-through-arm transfers and branch statistics by block ID,
// memory statistics by site ID, and calls by function. Nodes and their
// instructions come out in ID order, and edges in (From, To) order.
func buildGraph(prog *isa.Program, lay *vm.Layout,
	blockCounts, edgeTaken, edgeNot []uint64,
	memStats []memStat, branchStats []branchStat, callCounts []uint64) *sfgl.Graph {

	g := &sfgl.Graph{FuncCalls: callCounts}
	for _, f := range prog.Funcs {
		g.FuncNames = append(g.FuncNames, f.Name)
	}

	// Nodes in block-ID order, each followed by its out-edges: the taken
	// and fall-through arms, in To order, merged when both enter the same
	// block. edgesOf[id] is the first of block id's edges in g.Edges.
	edgesOf := make([]int, lay.NumBlocks()+1)
	for fi, f := range prog.Funcs {
		for bi, blk := range f.Blocks {
			id := lay.BlockID(fi, bi)
			n := &sfgl.Node{ID: id, Func: fi, Block: bi, Count: blockCounts[id]}
			if bs := &branchStats[id]; bs.total > 0 {
				transRate := 0.0
				if bs.total > 1 {
					transRate = float64(bs.transitions) / float64(bs.total-1)
				}
				n.Branch = &sfgl.BranchInfo{
					Taken:       bs.taken,
					Total:       bs.total,
					Transitions: bs.transitions,
					TakenRate:   float64(bs.taken) / float64(bs.total),
					TransRate:   transRate,
					Hard:        transRate > 0.15 && transRate < 0.85,
				}
			}
			g.Nodes = append(g.Nodes, n)

			edgesOf[id] = len(g.Edges)
			if c := edgeTaken[id]; c > 0 {
				g.Edges = append(g.Edges, &sfgl.Edge{From: id, To: lay.BlockID(fi, blk.Succs[0]), Count: c})
			}
			if c := edgeNot[id]; c > 0 {
				to := lay.BlockID(fi, blk.Succs[1])
				if k := len(g.Edges) - 1; k >= edgesOf[id] && g.Edges[k].To == to {
					g.Edges[k].Count += c
				} else {
					g.Edges = append(g.Edges, &sfgl.Edge{From: id, To: to, Count: c})
					if k >= edgesOf[id] && g.Edges[k].To > to {
						g.Edges[k], g.Edges[k+1] = g.Edges[k+1], g.Edges[k]
					}
				}
			}
		}
	}
	edgesOf[lay.NumBlocks()] = len(g.Edges)

	lay.Walk(func(s int, loc vm.SiteLoc, in *isa.Instr) {
		info := sfgl.InstrInfo{Op: in.Op}
		if ms := &memStats[s]; ms.accesses > 0 {
			info.Stream = ms.stream()
		}
		n := g.Nodes[lay.BlockID(loc.Func, loc.Block)]
		n.Instrs = append(n.Instrs, info)
	})

	// Loop annotation: natural loops on each function's static CFG. A
	// loop's entries are the transfers into its header from outside it:
	// everything entering the header, less its loop blocks' edges into it.
	into := make([]uint64, lay.NumBlocks())
	for _, e := range g.Edges {
		into[e.To] += e.Count
	}
	loopID := 0
	for fi, f := range prog.Funcs {
		forest := ir.FindLoops(ir.Succs(f), 0)
		for li := range forest.Loops {
			l := &forest.Loops[li]
			header := lay.BlockID(fi, l.Header)
			entries := into[header]
			nodes := make([]int, len(l.Blocks))
			for i, b := range l.Blocks {
				nodes[i] = lay.BlockID(fi, b)
				for _, e := range g.Edges[edgesOf[nodes[i]]:edgesOf[nodes[i]+1]] {
					if e.To == header {
						entries -= e.Count
					}
				}
			}
			parent := -1
			if l.Parent >= 0 {
				parent = loopID + l.Parent
			}
			g.Loops = append(g.Loops, &sfgl.Loop{
				ID:         loopID + li,
				Func:       fi,
				Header:     header,
				Nodes:      nodes,
				Parent:     parent,
				Depth:      l.Depth,
				Entries:    entries,
				Iterations: blockCounts[header],
			})
		}
		loopID += len(forest.Loops)
	}
	return g
}

// Save writes the profile as JSON.
func (p *Profile) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(p)
}

// Load reads a profile from JSON and checks it with Validate. Broken
// payloads, data after the profile included, are errors, never panics:
// profiles cross process boundaries (`synth synthesize -from`, the
// artifact store) and must fail loudly instead of synthesizing garbage.
func Load(r io.Reader) (*Profile, error) {
	var p Profile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("profile: decode: data after the profile")
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	return &p, nil
}

// Validate is the single profile validator: Load, the pipeline's stored
// profile decoder, and the generate sampler's mutant filter all call it,
// so a profile no synthesis should start from is rejected the same way
// wherever it comes from. A valid profile is present, has a graph that
// passes sfgl.Graph.Validate (sound loop structure and a known-version
// stream on every memory site), a nonzero dynamic total that its instruction mix sums
// to, and every stream and executed-branch statistic in [0,1] with
// stride fractions non-negative and summing to at most 1.
func (p *Profile) Validate() error {
	switch {
	case p == nil:
		return fmt.Errorf("missing profile")
	case p.Graph == nil:
		return fmt.Errorf("missing graph")
	}
	if err := p.Graph.Validate(); err != nil {
		return err
	}
	if p.TotalDyn == 0 {
		return fmt.Errorf("profile has no dynamic instructions")
	}
	var sum uint64
	for _, c := range p.Mix {
		sum += c
	}
	if sum != p.TotalDyn {
		return fmt.Errorf("mix sums to %d, want totalDyn=%d", sum, p.TotalDyn)
	}
	var err error
	check01 := func(n *sfgl.Node, what string, v float64) {
		if err == nil && (math.IsNaN(v) || v < 0 || v > 1) {
			err = fmt.Errorf("node %d: %s=%v out of [0,1]", n.ID, what, v)
		}
	}
	for _, n := range p.Graph.Nodes {
		for i := range n.Instrs {
			s := n.Instrs[i].Stream
			if s == nil {
				continue
			}
			check01(n, "missRate", s.MissRate)
			check01(n, "missWide", s.MissWide)
			check01(n, "regularity", s.Regularity)
			check01(n, "shortReuse", s.ShortReuse)
			var mass float64
			for _, b := range s.Strides {
				if err == nil && (b.Frac < 0 || math.IsNaN(b.Frac)) {
					err = fmt.Errorf("node %d: negative stride fraction %v", n.ID, b.Frac)
				}
				mass += b.Frac
			}
			if err == nil && mass > 1+1e-9 {
				err = fmt.Errorf("node %d: stride fractions sum to %v > 1", n.ID, mass)
			}
		}
		if b := n.Branch; b != nil && b.Total > 0 {
			check01(n, "takenRate", b.TakenRate)
			check01(n, "transRate", b.TransRate)
		}
	}
	return err
}
