package sfgl_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/sfgl"
)

// validGraphJSON returns a round-trippable graph payload for seeding.
func validGraphJSON(t testing.TB) []byte {
	t.Helper()
	g := &sfgl.Graph{
		FuncNames: []string{"main"},
		FuncCalls: []uint64{1},
		Nodes: []*sfgl.Node{{
			ID: 0, Count: 3,
			Instrs: []sfgl.InstrInfo{{Op: isa.LD, Stream: &sfgl.Stream{
				V: sfgl.StreamVersion, Accesses: 3, MissRate: 0.5,
				Strides: []sfgl.StrideBin{{Stride: 8, Frac: 0.9}, {Stride: -4, Frac: 0.1}},
			}}},
			Branch: &sfgl.BranchInfo{Taken: 1, Total: 3, TakenRate: 0.33, TransRate: 0.5, Hard: true},
		}},
		Edges: []*sfgl.Edge{{From: 0, To: 0, Count: 2}},
		Loops: []*sfgl.Loop{{ID: 0, Header: 0, Nodes: []int{0}, Parent: -1, Entries: 1, Iterations: 3}},
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzSFGLLoad decodes a graph the way profile.Load does (json.Unmarshal,
// then Validate) and asserts it never panics and never accepts a graph
// with a nil node, an executed load or store (LD/ST/LDL/STL in a node
// with a nonzero count) without a stream descriptor, or a stream version
// outside 1..StreamVersion: corrupt, truncated, stream-less or
// future-versioned memory sites must surface as errors. An accepted graph
// must scale down at any factor without panicking or spinning.
func FuzzSFGLLoad(f *testing.F) {
	valid := validGraphJSON(f)
	f.Add(valid)
	f.Add(valid[:len(valid)*2/3])                                      // truncated
	f.Add([]byte(`{"nodes":[null]}`))                                  // nil node
	f.Add([]byte(strings.Replace(string(valid), `"v":1`, `"v":2`, 1))) // future stream version
	f.Add([]byte(strings.Replace(string(valid), `"v":1`, `"v":0`, 1))) // zero stream version
	// A stream-less store, executed and never executed.
	memSite := `{"nodes":[{"id":0,"count":%d,"instrs":[{"op":%d}]}]}`
	f.Add([]byte(fmt.Sprintf(memSite, 1, isa.STL)))
	f.Add([]byte(fmt.Sprintf(memSite, 0, isa.STL)))
	f.Add([]byte(`[]`))
	// Loop parents: one naming no loop, and a cycle below a real loop.
	f.Add([]byte(`{"loops":[{"id":0,"header":0,"parent":999}]}`))
	f.Add([]byte(`{"nodes":[{"id":0,"count":4}],"loops":[{"id":0,"header":0,"nodes":[0],"parent":1},` +
		`{"id":1,"header":7,"parent":2},{"id":2,"header":8,"parent":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g sfgl.Graph
		if json.Unmarshal(data, &g) != nil || g.Validate() != nil {
			return
		}
		for _, n := range g.Nodes {
			if n == nil {
				t.Fatal("Validate accepted a nil node")
			}
			for i, in := range n.Instrs {
				mem := false
				switch in.Op {
				case isa.LD, isa.ST, isa.LDL, isa.STL:
					mem = n.Count > 0
				}
				if s := in.Stream; s == nil && mem || s != nil && (s.V < 1 || s.V > sfgl.StreamVersion) {
					t.Fatalf("Validate accepted node %d (count %d) instr %d: op %v stream %+v", n.ID, n.Count, i, in.Op, s)
				}
			}
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			g.ScaleDown(1)
			g.ScaleDown(1 << 20)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("ScaleDown of an accepted graph did not return")
		}
	})
}
