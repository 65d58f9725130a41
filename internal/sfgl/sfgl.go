// Package sfgl implements the Statistical Flow Graph with Loop annotation,
// the paper's central profile structure (Section III.A.1, Fig. 2). Nodes
// are basic blocks annotated with execution counts, per-instruction
// information (opcodes and memory sites' stride streams) and branch
// taken/transition rates; edges carry control-flow transition counts; and
// the loop annotation records nesting and iteration counts, which is what
// lets the synthesizer emit real (nested) loops instead of prior work's
// linear block sequences.
package sfgl

import (
	"fmt"

	"repro/internal/isa"
)

// InstrInfo describes one static instruction of a basic block: its opcode
// (the paper's "instruction types" with operand kinds, which our opcodes
// encode; Op.ClassOf gives its class), plus the per-site stride-stream
// descriptor for profiled loads and stores. Every executed load or store
// must carry a Stream: the synthesizer builds memory accesses from streams
// alone, so Validate rejects profiles that lack one.
type InstrInfo struct {
	Op     isa.Opcode `json:"op"`
	Stream *Stream    `json:"stream,omitempty"`
}

// StreamVersion is the current Stream descriptor serialization version.
// Load rejects descriptors from a newer (unknown) version instead of
// silently misreading them; older versions remain decodable forever.
const StreamVersion = 1

// StreamStrides is how many top strides a Stream descriptor retains. The
// profiler tracks exactly this many online (space-saving counters), so
// per-access profiling state stays O(1).
const StreamStrides = 4

// Stream is the per-static-access memory stream descriptor: the observed
// stride histogram (top strides by frequency) and a coarse reuse summary,
// captured online during profiling. It refines the single Table I class —
// which collapses an access pattern into one miss-rate bucket — enough for
// the synthesizer to reproduce *how* a site misses (regular strides that
// prefetch-like walks can overlap vs. irregular, dependence-serialized
// pointer chasing), not just how often.
type Stream struct {
	// V is the descriptor version (StreamVersion when written by this
	// profiler).
	V int `json:"v"`
	// Accesses is the site's dynamic access count.
	Accesses uint64 `json:"accesses"`
	// MissRate is the measured miss rate at the profiling cache.
	MissRate float64 `json:"missRate"`
	// MissWide is the measured miss rate at the wide (8x) profiling
	// cache. The two-point miss curve bounds the site's working set: a
	// site missing the primary cache but hitting the wide one is
	// locality-bound, not streaming, and its walker's range must stay
	// within the wide capacity.
	MissWide float64 `json:"missWide"`
	// Strides holds the top observed address strides by frequency,
	// descending; fractions are relative to all stride transitions
	// (Accesses-1). The tail beyond StreamStrides entries is discarded.
	Strides []StrideBin `json:"strides,omitempty"`
	// Regularity is the fraction of stride transitions that repeated the
	// previous stride — near 1 for array walks, near 0 for pointer chasing.
	Regularity float64 `json:"regularity"`
	// ShortReuse is the fraction of accesses that touched one of the
	// site's four most recently accessed cache lines: a coarse, O(1)
	// reuse-distance summary separating temporal locality from streaming.
	ShortReuse float64 `json:"shortReuse"`
}

// StrideBin is one bucket of a Stream's stride histogram.
type StrideBin struct {
	// Stride is the address delta in bytes (may be negative).
	Stride int64 `json:"stride"`
	// Frac is the fraction of stride transitions with this delta.
	Frac float64 `json:"frac"`
}

// TopFrac returns the combined frequency of the n most frequent strides.
func (s *Stream) TopFrac(n int) float64 {
	var f float64
	for i, b := range s.Strides {
		if i >= n {
			break
		}
		f += b.Frac
	}
	return f
}

// Validate checks a graph's structure and its stream descriptors. There
// is one call count per function, no edge or loop is nil, every loop's
// parent is -1 or another loop's ID, and no chain of parents cycles.
// Every memory site (a load or store, LD/ST/LDL/STL, in a node that
// executed) carries a stream, and every version is known and positive.
// The opcode decides which sites are memory sites, not anything the
// profile says about itself.
// profile.Load calls it so that corrupt, pre-stream or future-versioned
// profiles fail loudly instead of synthesizing from garbage.
func (g *Graph) Validate() error {
	if len(g.FuncCalls) != len(g.FuncNames) {
		return fmt.Errorf("sfgl: %d call counts for %d functions", len(g.FuncCalls), len(g.FuncNames))
	}
	for _, e := range g.Edges {
		if e == nil {
			return fmt.Errorf("sfgl: nil edge")
		}
	}
	parent := make(map[int]int, len(g.Loops))
	for _, l := range g.Loops {
		if l == nil {
			return fmt.Errorf("sfgl: nil loop")
		}
		parent[l.ID] = l.Parent
	}
	for _, l := range g.Loops {
		// Climb to the outermost loop; a chain longer than the loop
		// count revisits a loop.
		for p, steps := l.Parent, 0; p != -1; p, steps = parent[p], steps+1 {
			if _, ok := parent[p]; !ok {
				return fmt.Errorf("sfgl: loop %d: parent chain reaches %d, which is no loop", l.ID, p)
			}
			if steps == len(g.Loops) {
				return fmt.Errorf("sfgl: loop %d: parent chain cycles", l.ID)
			}
		}
	}
	for _, n := range g.Nodes {
		if n == nil {
			return fmt.Errorf("sfgl: nil node")
		}
		for i := range n.Instrs {
			s := n.Instrs[i].Stream
			if s == nil {
				switch n.Instrs[i].Op {
				case isa.LD, isa.ST, isa.LDL, isa.STL:
					if n.Count > 0 {
						return fmt.Errorf("sfgl: node %d instr %d: memory site has no stream descriptor (pre-stream profile: re-profile it)",
							n.ID, i)
					}
				}
				continue
			}
			if s.V < 1 || s.V > StreamVersion {
				return fmt.Errorf("sfgl: node %d instr %d: unsupported stream version %d (max %d)",
					n.ID, i, s.V, StreamVersion)
			}
		}
	}
	return nil
}

// BranchInfo is the paper's Section III.A.2 branch characterization.
type BranchInfo struct {
	Taken       uint64  `json:"taken"`
	Total       uint64  `json:"total"`
	Transitions uint64  `json:"transitions"`
	TakenRate   float64 `json:"takenRate"`
	TransRate   float64 `json:"transRate"`
	Hard        bool    `json:"hard"` // medium transition rate = hard to predict
}

// Node is one basic block of the SFGL.
type Node struct {
	ID    int    `json:"id"`
	Func  int    `json:"func"`  // function index in the profiled binary
	Block int    `json:"block"` // block index within the function
	Count uint64 `json:"count"` // execution count

	Instrs []InstrInfo `json:"instrs"`

	// Branch describes the terminating conditional branch, if any.
	Branch *BranchInfo `json:"branch,omitempty"`
}

// Edge is a control-flow transition with its observed count.
type Edge struct {
	From  int    `json:"from"` // node ID
	To    int    `json:"to"`   // node ID
	Count uint64 `json:"count"`
}

// Loop is a natural loop with the paper's iteration annotation.
type Loop struct {
	ID     int   `json:"id"`
	Func   int   `json:"func"`
	Header int   `json:"header"` // node ID of the loop header
	Nodes  []int `json:"nodes"`  // node IDs in the body (including header)
	Parent int   `json:"parent"` // enclosing loop ID, or -1
	Depth  int   `json:"depth"`

	// Entries counts how many times the loop was entered from outside;
	// Iterations counts header executions. Their ratio is the average
	// trip count used when the synthesizer emits a for loop.
	Entries    uint64 `json:"entries"`
	Iterations uint64 `json:"iterations"`
}

// AvgTrip returns the average number of iterations per entry.
func (l *Loop) AvgTrip() float64 {
	if l.Entries == 0 {
		return 0
	}
	return float64(l.Iterations) / float64(l.Entries)
}

// Graph is the complete SFGL.
type Graph struct {
	FuncNames []string `json:"funcNames"`
	Nodes     []*Node  `json:"nodes"`
	Edges     []*Edge  `json:"edges"`
	Loops     []*Loop  `json:"loops"`
	// FuncCalls counts dynamic calls per function index.
	FuncCalls []uint64 `json:"funcCalls"`
}

// Node returns the node with the given ID, or nil. IDs are not slice
// indices: scaled-down graphs drop nodes but keep the original IDs.
func (g *Graph) Node(id int) *Node {
	for _, n := range g.Nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// OutEdges returns the edges leaving node id.
func (g *Graph) OutEdges(id int) []*Edge {
	var out []*Edge
	for _, e := range g.Edges {
		if e.From == id {
			out = append(out, e)
		}
	}
	return out
}

// InnermostLoopOf returns the deepest loop containing node id, or nil.
func (g *Graph) InnermostLoopOf(id int) *Loop {
	var best *Loop
	for _, l := range g.Loops {
		for _, n := range l.Nodes {
			if n == id && (best == nil || l.Depth > best.Depth) {
				best = l
			}
		}
	}
	return best
}

// ScaleDown produces the scaled-down SFGL of Section III.B.1 / Fig. 2:
// node counts are divided by the reduction factor R and blocks executed
// fewer than R times disappear; loop iteration counts are scaled
// nest-aware — the outer loop absorbs as much of R as its trip count
// allows, and the remainder is pushed into the nested loops.
func (g *Graph) ScaleDown(r uint64) *Graph {
	if r == 0 {
		r = 1
	}
	out := &Graph{
		FuncNames: append([]string(nil), g.FuncNames...),
		FuncCalls: make([]uint64, len(g.FuncCalls)),
	}
	for i, c := range g.FuncCalls {
		out.FuncCalls[i] = c / r
	}

	keep := make(map[int]bool)
	for _, n := range g.Nodes {
		scaled := n.Count / r
		if scaled == 0 {
			continue // infrequent blocks are removed (and hide semantics)
		}
		nn := *n
		nn.Count = scaled
		if n.Branch != nil {
			b := *n.Branch
			b.Taken /= r
			b.Total /= r
			b.Transitions /= r
			nn.Branch = &b
		}
		nn.Instrs = append([]InstrInfo(nil), n.Instrs...)
		out.Nodes = append(out.Nodes, &nn)
		keep[n.ID] = true
	}
	for _, e := range g.Edges {
		if !keep[e.From] || !keep[e.To] {
			continue
		}
		scaled := e.Count / r
		if scaled == 0 {
			continue
		}
		out.Edges = append(out.Edges, &Edge{From: e.From, To: e.To, Count: scaled})
	}

	// Loop scaling: total iterations divide by R (consistent with the
	// header's node count), entries divide by R but a surviving loop is
	// entered at least once, and iterations never drop below entries.
	// This realizes the paper's nest-aware rule automatically: an outer
	// loop whose trip count cannot absorb R bottoms out at one iteration
	// per entry, and the nested loop — whose total iterations also shrank
	// by R while its entry count collapsed — carries the remaining factor
	// in its per-entry trip count.
	survives := make(map[int]bool)
	for _, l := range g.Loops {
		if keep[l.Header] {
			survives[l.ID] = true
		}
	}
	loopByID := make(map[int]*Loop)
	for _, l := range g.Loops {
		loopByID[l.ID] = l
	}
	for _, l := range g.Loops {
		if !survives[l.ID] {
			continue // the whole loop fell below the threshold
		}
		nl := *l
		nl.Nodes = nil
		for _, n := range l.Nodes {
			if keep[n] {
				nl.Nodes = append(nl.Nodes, n)
			}
		}
		// Reattach to the nearest surviving ancestor (a dropped outer
		// loop promotes its surviving children).
		for nl.Parent != -1 && !survives[nl.Parent] {
			nl.Parent = loopByID[nl.Parent].Parent
		}
		nl.Entries = max(l.Entries/r, 1)
		nl.Iterations = max(l.Iterations/r, nl.Entries)
		out.Loops = append(out.Loops, &nl)
	}
	return out
}

// Table I: memory-access classes. Class k covers miss rates around
// k*12.5% and maps to a stride of 4k bytes on a 32-byte-line cache.

// NumMemClasses is the number of Table I classes.
const NumMemClasses = 9

// StrideBytes returns the Table I stride for a memory class.
func StrideBytes(class int) int {
	if class < 0 {
		class = 0
	}
	if class > 8 {
		class = 8
	}
	return class * 4
}
