package sfgl

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// paperExample builds the SFGL of the paper's Fig. 2(a):
// A(500) -> B(420), C(80); B,C -> D(500); D -> loop{E(5000), F(1000),
// G(4000), H(5000)} -> I(500).
func paperExample() *Graph {
	g := &Graph{FuncNames: []string{"main"}, FuncCalls: []uint64{0}}
	counts := []uint64{500, 420, 80, 500, 5000, 1000, 4000, 5000, 500}
	for i, c := range counts {
		g.Nodes = append(g.Nodes, &Node{ID: i, Func: 0, Block: i, Count: c})
	}
	// Names for readability: A=0 B=1 C=2 D=3 E=4 F=5 G=6 H=7 I=8.
	edges := [][3]uint64{
		{0, 1, 420}, {0, 2, 80}, {1, 3, 420}, {2, 3, 80},
		{3, 4, 500}, {4, 5, 1000}, {4, 6, 4000}, {5, 7, 1000}, {6, 7, 4000},
		{7, 4, 4500}, {7, 8, 500},
	}
	for _, e := range edges {
		g.Edges = append(g.Edges, &Edge{From: int(e[0]), To: int(e[1]), Count: e[2]})
	}
	g.Loops = append(g.Loops, &Loop{
		ID: 0, Func: 0, Header: 4, Nodes: []int{4, 5, 6, 7},
		Parent: -1, Depth: 1, Entries: 500, Iterations: 5000,
	})
	return g
}

func TestScaleDownPaperFigure2(t *testing.T) {
	g := paperExample()
	s := g.ScaleDown(100)

	// Fig. 2(b): A(5) B(4) D(5) E(50) F(10) G(40) H(50) I(5); C removed.
	want := map[int]uint64{0: 5, 1: 4, 3: 5, 4: 50, 5: 10, 6: 40, 7: 50, 8: 5}
	got := make(map[int]uint64)
	for _, n := range s.Nodes {
		got[n.ID] = n.Count
	}
	if len(got) != len(want) {
		t.Fatalf("scaled nodes = %v, want %v", got, want)
	}
	for id, c := range want {
		if got[id] != c {
			t.Errorf("node %d count = %d, want %d", id, got[id], c)
		}
	}
	if _, hasC := got[2]; hasC {
		t.Error("block C should be removed (executed < R times)")
	}
	// Edges touching C must be gone.
	for _, e := range s.Edges {
		if e.From == 2 || e.To == 2 {
			t.Errorf("edge %d->%d should have been removed with node C", e.From, e.To)
		}
	}
	// The loop survives with trip count 10 (5000/500), entries scaled to 5.
	if len(s.Loops) != 1 {
		t.Fatalf("scaled loops = %d, want 1", len(s.Loops))
	}
	l := s.Loops[0]
	if l.Entries != 5 {
		t.Errorf("loop entries = %d, want 5", l.Entries)
	}
	if trip := l.AvgTrip(); trip < 9.5 || trip > 10.5 {
		t.Errorf("loop trip = %.2f, want ≈10 (unchanged per-entry trip)", trip)
	}
}

func TestScaleDownNestedLoops(t *testing.T) {
	// Outer loop: 10 iterations/entry; inner: 100 iterations/outer-iter.
	// R=100: the outer header only executes 10 (< R) times, so per the
	// paper's rule the outer loop is removed entirely; the inner loop is
	// promoted to top level with total iterations scaled by R
	// (1000/100 = 10 per remaining entry) — the nested loop carries the
	// part of R the outer loop could not absorb.
	g := &Graph{FuncNames: []string{"main"}, FuncCalls: []uint64{0}}
	g.Nodes = []*Node{
		{ID: 0, Count: 1},    // preheader
		{ID: 1, Count: 10},   // outer header
		{ID: 2, Count: 1000}, // inner header
		{ID: 3, Count: 1000}, // inner body
	}
	g.Loops = []*Loop{
		{ID: 0, Header: 1, Nodes: []int{1, 2, 3}, Parent: -1, Depth: 1, Entries: 1, Iterations: 10},
		{ID: 1, Header: 2, Nodes: []int{2, 3}, Parent: 0, Depth: 2, Entries: 10, Iterations: 1000},
	}
	s := g.ScaleDown(100)
	if len(s.Loops) != 1 {
		t.Fatalf("surviving loops = %d, want 1 (outer dropped, inner kept): %+v", len(s.Loops), s.Loops)
	}
	inner := s.Loops[0]
	if inner.ID != 1 {
		t.Fatalf("wrong survivor: %+v", inner)
	}
	if inner.Parent != -1 {
		t.Errorf("inner should be promoted to top level, parent = %d", inner.Parent)
	}
	if trip := inner.AvgTrip(); trip < 9 || trip > 11 {
		t.Errorf("inner trip = %.2f, want ≈10", trip)
	}
	// A milder factor keeps both loops: R=5 scales outer trips 10 -> 2.
	s2 := g.ScaleDown(5)
	if len(s2.Loops) != 2 {
		t.Fatalf("R=5 should keep both loops, got %d", len(s2.Loops))
	}
	for _, l := range s2.Loops {
		if l.ID == 0 {
			if trip := l.AvgTrip(); trip < 1.9 || trip > 2.1 {
				t.Errorf("outer trip at R=5 = %.2f, want ≈2", trip)
			}
		}
	}
}

// totalCount sums a graph's node execution counts.
func totalCount(g *Graph) uint64 {
	var t uint64
	for _, n := range g.Nodes {
		t += n.Count
	}
	return t
}

func TestScaleDownIdentity(t *testing.T) {
	g := paperExample()
	s := g.ScaleDown(1)
	if len(s.Nodes) != len(g.Nodes) {
		t.Errorf("R=1 should keep all nodes: %d vs %d", len(s.Nodes), len(g.Nodes))
	}
	for i, n := range s.Nodes {
		if n.Count != g.Nodes[i].Count {
			t.Errorf("R=1 changed node %d count", i)
		}
	}
	if totalCount(s.ScaleDown(0)) != totalCount(s) {
		t.Errorf("R=0 should behave as R=1")
	}
}

func TestScaleDownDoesNotMutateOriginal(t *testing.T) {
	g := paperExample()
	before := totalCount(g)
	_ = g.ScaleDown(100)
	if totalCount(g) != before {
		t.Error("ScaleDown mutated the source graph")
	}
	if len(g.Nodes) != 9 {
		t.Error("ScaleDown removed nodes from the source graph")
	}
}

func TestScaleDownProperty(t *testing.T) {
	// Property: for any R, every surviving node count equals original/R
	// and totals shrink by at least ~R.
	f := func(rRaw uint8) bool {
		r := uint64(rRaw%200) + 1
		g := paperExample()
		s := g.ScaleDown(r)
		for _, n := range s.Nodes {
			orig := g.Node(n.ID)
			if n.Count != orig.Count/r || n.Count == 0 {
				return false
			}
		}
		return totalCount(s) <= totalCount(g)/r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemClassTable(t *testing.T) {
	// Stride column of Table I.
	for class, want := range []int{0, 4, 8, 12, 16, 20, 24, 28, 32} {
		if got := StrideBytes(class); got != want {
			t.Errorf("StrideBytes(%d) = %d, want %d", class, got, want)
		}
	}
	if StrideBytes(-1) != 0 || StrideBytes(99) != 32 {
		t.Error("StrideBytes should clamp out-of-range classes")
	}
}

func TestGraphQueries(t *testing.T) {
	g := paperExample()
	out := g.OutEdges(4)
	if len(out) != 2 {
		t.Errorf("OutEdges(E) = %d edges, want 2", len(out))
	}
	if l := g.InnermostLoopOf(5); l == nil || l.ID != 0 {
		t.Error("F should be inside the loop")
	}
	if g.InnermostLoopOf(0) != nil {
		t.Error("A is not in a loop")
	}
}

// TestLoadRejectsPreStreamSite checks that every kind of executed memory
// site (LD, ST, LDL, STL in a node with a nonzero count) without a stream
// descriptor fails validation, while a non-memory instruction, and a
// memory instruction in a node that never ran, need none.
func TestLoadRejectsPreStreamSite(t *testing.T) {
	g := paperExample()
	for _, op := range []isa.Opcode{isa.LD, isa.ST, isa.LDL, isa.STL} {
		g.Nodes[0].Instrs = []InstrInfo{
			{Op: isa.ADD},
			{Op: op},
		}
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), "pre-stream profile") {
			t.Fatalf("Validate(stream-less %v site) = %v, want a pre-stream profile error", op, err)
		}
	}
	count := g.Nodes[0].Count
	g.Nodes[0].Count = 0
	if err := g.Validate(); err != nil {
		t.Errorf("memory instruction in a node that never ran rejected: %v", err)
	}
	g.Nodes[0].Count = count
	g.Nodes[0].Instrs = g.Nodes[0].Instrs[:1]
	if err := g.Validate(); err != nil {
		t.Errorf("non-memory instruction without a stream rejected: %v", err)
	}
}

// TestValidateRejectsBrokenStructure checks graph shapes that used to pass
// validation and then crash or hang their consumers: a call-count list
// shorter than the function list (core.Consolidate indexed past it), a
// loop parent naming no loop (ScaleDown dereferenced nil), and a parent
// chain that cycles (ScaleDown's ancestor climb never ended).
func TestValidateRejectsBrokenStructure(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(g *Graph)
		want   string
	}{
		{"no call counts", func(g *Graph) { g.FuncCalls = nil }, "0 call counts for 1 functions"},
		{"parent names no loop", func(g *Graph) { g.Loops[0].Parent = 999 }, "reaches 999, which is no loop"},
		{"parent chain cycles", func(g *Graph) {
			// Two headerless loops naming each other, below a real one.
			g.Loops = append(g.Loops,
				&Loop{ID: 1, Header: 100, Parent: 2, Depth: 1},
				&Loop{ID: 2, Header: 101, Parent: 1, Depth: 1})
			g.Loops[0].Parent = 1
		}, "parent chain cycles"},
		{"nil loop", func(g *Graph) { g.Loops = append(g.Loops, nil) }, "nil loop"},
		{"nil edge", func(g *Graph) { g.Edges = append(g.Edges, nil) }, "nil edge"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := paperExample()
			tc.mutate(g)
			if err := g.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	if err := paperExample().Validate(); err != nil {
		t.Errorf("paper example rejected: %v", err)
	}
}
