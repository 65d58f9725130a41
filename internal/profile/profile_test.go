package profile

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/hlc/hlctest"
	"repro/internal/isa"
	"repro/internal/sfgl"
	"repro/internal/vm"
)

func collect(t *testing.T, src string) *Profile {
	t.Helper()
	prog, err := compiler.Compile(hlctest.MustCheck(src), Target, Level)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Collect(prog, nil, "test")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCollectLoopAnnotation(t *testing.T) {
	p := collect(t, `
void main() {
  int sum = 0;
  for (int i = 0; i < 40; i++) { sum += i; }
  print(sum);
}`)
	if len(p.Graph.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(p.Graph.Loops))
	}
	l := p.Graph.Loops[0]
	if l.Entries != 1 {
		t.Errorf("loop entries = %d, want 1", l.Entries)
	}
	// Header executes 41 times (40 body + 1 exit test).
	if trip := l.AvgTrip(); trip < 40 || trip > 42 {
		t.Errorf("avg trip = %.1f, want ≈41", trip)
	}
}

func TestCollectNestedLoops(t *testing.T) {
	p := collect(t, `
void main() {
  int s = 0;
  for (int i = 0; i < 10; i++) {
    for (int j = 0; j < 20; j++) { s += j; }
  }
  print(s);
}`)
	if len(p.Graph.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(p.Graph.Loops))
	}
	var inner, outer *sfgl.Loop
	for _, l := range p.Graph.Loops {
		if l.Depth == 2 {
			inner = l
		} else {
			outer = l
		}
	}
	if inner == nil || outer == nil {
		t.Fatalf("bad nest: %+v", p.Graph.Loops)
	}
	if inner.Parent != outer.ID {
		t.Error("inner loop's parent should be the outer loop")
	}
	if trip := inner.AvgTrip(); trip < 20 || trip > 22 {
		t.Errorf("inner trip = %.1f, want ≈21", trip)
	}
	if outer.Entries != 1 || inner.Entries != 10 {
		t.Errorf("entries outer=%d inner=%d, want 1/10", outer.Entries, inner.Entries)
	}
}

func TestCollectBranchRates(t *testing.T) {
	// Branch taken in a data-dependent alternating pattern: taken rate
	// ~0.5, transition rate ~1.0 => easy to predict (not Hard).
	p := collect(t, `
void main() {
  int x = 0;
  for (int i = 0; i < 1000; i++) {
    if (i % 2 == 0) { x += 1; } else { x += 2; }
  }
  print(x);
}`)
	var alternating *sfgl.BranchInfo
	for _, n := range p.Graph.Nodes {
		if n.Branch != nil && n.Branch.Total >= 900 && n.Branch.TakenRate > 0.4 && n.Branch.TakenRate < 0.6 {
			alternating = n.Branch
		}
	}
	if alternating == nil {
		t.Fatal("alternating branch not found in profile")
	}
	if alternating.TransRate < 0.9 {
		t.Errorf("alternating branch transition rate = %.2f, want ≈1", alternating.TransRate)
	}
	if alternating.Hard {
		t.Error("high transition rate should classify as easy to predict")
	}
}

func TestCollectBiasedBranchIsEasy(t *testing.T) {
	p := collect(t, `
void main() {
  int x = 0;
  for (int i = 0; i < 1000; i++) {
    if (i == 500) { x = 99; }
  }
  print(x);
}`)
	found := false
	for _, n := range p.Graph.Nodes {
		if n.Branch != nil && n.Branch.Total >= 900 &&
			(n.Branch.TakenRate < 0.05 || n.Branch.TakenRate > 0.95) {
			found = true
			if n.Branch.Hard {
				t.Error("strongly biased branch should be easy")
			}
			if n.Branch.TransRate > 0.15 {
				t.Errorf("biased branch transition rate = %.3f, want low", n.Branch.TransRate)
			}
		}
	}
	if !found {
		t.Fatal("biased branch not found")
	}
}

func TestCollectMemClasses(t *testing.T) {
	// Sequential walk over a large int array: 32-byte lines hold 8 ints,
	// so the load misses ~1/8 of the time => Table I class 1 (miss rates
	// within 1/16 of 12.5%).
	p := collect(t, `
int big[32768];
void main() {
  int s = 0;
  for (int r = 0; r < 4; r++) {
    for (int i = 0; i < 32768; i++) { s += big[i]; }
  }
  print(s);
}`)
	var rates []float64
	for _, n := range p.Graph.Nodes {
		for _, in := range n.Instrs {
			if in.Op == isa.LD && in.Stream != nil && n.Count > 1000 {
				if m := in.Stream.MissRate; m >= 1.0/16 && m < 3.0/16 {
					return
				}
				rates = append(rates, in.Stream.MissRate)
			}
		}
	}
	t.Errorf("sequential array walk should miss as Table I class 1, got miss rates %v", rates)
}

func TestCollectMixAndTotals(t *testing.T) {
	p := collect(t, `
int data[64];
void main() {
  for (int i = 0; i < 64; i++) { data[i] = i; }
  int s = 0;
  for (int i = 0; i < 64; i++) { s += data[i]; }
  print(s);
}`)
	if p.TotalDyn == 0 {
		t.Fatal("empty profile")
	}
	var sum uint64
	for _, c := range p.Mix {
		sum += c
	}
	if sum != p.TotalDyn {
		t.Errorf("mix sums to %d, want %d", sum, p.TotalDyn)
	}
	loads, stores, branches := p.Mix[isa.ClassLoad], p.Mix[isa.ClassStore], p.Mix[isa.ClassBranch]
	if loads == 0 || stores == 0 || branches == 0 || loads+stores+branches >= p.TotalDyn {
		t.Errorf("degenerate mix: %v", p.Mix)
	}
	// O0 code is memory-heavy: loads should be a large fraction.
	if loads := float64(loads) / float64(p.TotalDyn); loads < 0.2 {
		t.Errorf("O0 load fraction = %.2f, expected heavy load traffic", loads)
	}
}

func TestCollectNodeCountsMatchEdges(t *testing.T) {
	// Internal consistency: a node's count equals the sum of incoming
	// edge counts (plus 1 for the entry block of main per call).
	p := collect(t, `
void main() {
  int s = 0;
  for (int i = 0; i < 10; i++) {
    if (i % 3 == 0) { s += 2; } else { s -= 1; }
  }
  print(s);
}`)
	incoming := make(map[int]uint64)
	for _, e := range p.Graph.Edges {
		incoming[e.To] += e.Count
	}
	for _, n := range p.Graph.Nodes {
		if n.Count == 0 {
			continue
		}
		in := incoming[n.ID]
		// main's entry block has no incoming edges but executes once.
		if n.Block == 0 {
			in++
		}
		if in != n.Count {
			t.Errorf("node %d (f%d b%d): count %d but incoming %d",
				n.ID, n.Func, n.Block, n.Count, in)
		}
	}
}

func TestCollectFuncCalls(t *testing.T) {
	p := collect(t, `
int helper(int x) { return x * 2; }
void main() {
  int s = 0;
  for (int i = 0; i < 25; i++) { s += helper(i); }
  print(s);
}`)
	hi := -1
	for i, name := range p.Graph.FuncNames {
		if name == "helper" {
			hi = i
		}
	}
	if hi < 0 {
		t.Fatal("helper not in profile")
	}
	if p.Graph.FuncCalls[hi] != 25 {
		t.Errorf("helper called %d times in profile, want 25", p.Graph.FuncCalls[hi])
	}
}

// A scalar global's literal initializer is part of the compiled program:
// loading it installs the value at every ISA and level, so a plain run and
// the profiled run both see it.
func TestGlobalInitializers(t *testing.T) {
	cp := hlctest.MustCheck(`
int counter = 5;
float scale = 2.5;
float widened = 3;
int zero = 0;
void main() { print(counter); print(scale); print(widened); print(zero); }`)
	const want = "5 2.5 3 0"
	for _, target := range []*isa.Desc{isa.X86, isa.AMD64, isa.IA64} {
		for _, level := range compiler.Levels {
			prog, err := compiler.Compile(cp, target, level)
			if err != nil {
				t.Fatal(err)
			}
			res, err := vm.New(prog).Run(vm.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(res.Output, " "); got != want {
				t.Errorf("%s %v: printed %q, want %q", target.Name, level, got, want)
			}
			if target != Target || level != Level {
				continue
			}
			p, err := Collect(prog, nil, "init")
			if err != nil {
				t.Fatal(err)
			}
			if p.OutputHash != res.OutputHash {
				t.Errorf("profiled run's output hash %x, plain run's %x", p.OutputHash, res.OutputHash)
			}
		}
	}
}

func TestProfileSaveLoad(t *testing.T) {
	p := collect(t, `void main() { print(7); }`)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.TotalDyn != p.TotalDyn || q.Workload != p.Workload {
		t.Error("round trip mismatch")
	}
	if _, err := Load(bytes.NewBufferString("nope")); err == nil {
		t.Error("expected decode error")
	}
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("garbage")
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "data after the profile") {
		t.Errorf("Load(profile + garbage) = %v, want a trailing-data error", err)
	}
}

// TestLoadRejectsPreStreamProfile checks that a profile whose memory
// sites carry no stream descriptor (one written before stream profiling)
// fails to load with an error naming the cause.
func TestLoadRejectsPreStreamProfile(t *testing.T) {
	p := collect(t, `int a[64]; void main() { for (int i = 0; i < 64; i++) { a[i] = i; } print(a[3]); }`)
	sites := 0
	for _, n := range p.Graph.Nodes {
		for i := range n.Instrs {
			if n.Instrs[i].Stream != nil {
				n.Instrs[i].Stream = nil
				sites++
			}
		}
	}
	if sites == 0 {
		t.Fatal("profile has no memory sites")
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "pre-stream profile") {
		t.Errorf("Load(pre-stream profile) = %v, want a pre-stream profile error", err)
	}
}

// TestLoadRejectsOutOfRangeStats checks that Load applies Validate's
// range checks: a collected profile whose stream miss rate is pushed
// outside [0,1] is an error naming the statistic, while the unmodified
// profile loads.
func TestLoadRejectsOutOfRangeStats(t *testing.T) {
	p := collect(t, `int a[64]; void main() { for (int i = 0; i < 64; i++) { a[i] = i; } print(a[3]); }`)
	var site *sfgl.Stream
	for _, n := range p.Graph.Nodes {
		for i := range n.Instrs {
			if s := n.Instrs[i].Stream; s != nil && site == nil {
				site = s
			}
		}
	}
	if site == nil {
		t.Fatal("profile has no stream")
	}
	load := func() error {
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		return err
	}
	if err := load(); err != nil {
		t.Fatalf("collected profile rejected: %v", err)
	}
	for _, miss := range []float64{7, -3} {
		site.MissRate = miss
		if err := load(); err == nil || !strings.Contains(err.Error(), "missRate") {
			t.Errorf("Load(missRate=%v) = %v, want a missRate range error", miss, err)
		}
	}
}
