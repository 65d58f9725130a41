package cpu

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Golden timing microbenchmarks for the memory-dependence model: each
// pins one mechanism — store-to-load forwarding, load-chain
// serialization, the EPIC conservative load rule, and frame-versioned
// register readiness across calls — by comparing cycle counts of program
// pairs that differ only in that mechanism.

// cyclesFor compiles and simulates src, returning total cycles.
func cyclesFor(t *testing.T, src string, target *isa.Desc, level compiler.OptLevel, cfg Config) uint64 {
	t.Helper()
	prog := compileFor(t, src, target, level)
	res, err := Simulate(prog, nil, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res.Cycles
}

// fwdSrc builds the store-then-load loop: the store always hits g[0]'s
// line and its data depends on the accumulator, so in the idx-0 variant
// the loop-carried chain runs through the store queue — the load must
// wait for the store's (late) data plus the forwarding latency. idx 64
// is 256 bytes away: a different line with identical instruction shape,
// whose load issues independently and breaks the memory carry.
func fwdSrc(idx string) string {
	return `
int g[256];
void main() {
  int s = 0;
  for (int i = 0; i < 5000; i++) {
    g[0] = s + i;
    s += g[` + idx + `];
  }
  print(s);
}`
}

// TestStoreForwardSameLineSerializes: on the out-of-order model a load
// that hits an in-flight older store's line must wait for the store's
// data and pay the forwarding latency, so the same-line loop is slower
// than the byte-for-byte-equal different-line loop, whose load issues
// independently of the store.
func TestStoreForwardSameLineSerializes(t *testing.T) {
	// 4-wide at -O1: the front end is fast enough that per-iteration time
	// is the dependence chain, not fetch bandwidth (at -O0 on a 2-wide
	// machine both variants are fetch-bound and the chain hides).
	cfg := Simulated2Wide(16)
	cfg.Width = 4
	same := cyclesFor(t, fwdSrc("0"), isa.AMD64, compiler.O1, cfg)
	diff := cyclesFor(t, fwdSrc("64"), isa.AMD64, compiler.O1, cfg)
	if same <= diff {
		t.Errorf("same-line store→load loop (%d cycles) should be slower than different-line (%d)",
			same, diff)
	}
}

// TestStoreForwardProbesL1: a load that forwards from the store queue
// still probes the cache, as a real core searches the store queue and L1
// in parallel, so the front end's access stream is the same for every
// config. In the same-line loop every load forwards from the store just
// before it: each counts as one L1 load hit (the store filled the line),
// and its latency still follows the forwarding rule, so the loop takes
// exactly the cycles it took when forwarded loads skipped the cache.
func TestStoreForwardProbesL1(t *testing.T) {
	cfg := Simulated2Wide(16) // TestStoreForwardSameLineSerializes's machine
	cfg.Width = 4
	prog := compileFor(t, fwdSrc("0"), isa.AMD64, compiler.O1)
	res, err := Simulate(prog, nil, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(prog)
	classes := m.Layout().Classes()
	var loads uint64
	if _, err := m.Run(vm.Config{Hook: func(ev *vm.Event) {
		if classes[ev.Site] == isa.ClassLoad {
			loads++
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if want := (cache.Stats{Accesses: loads}); res.L1 != want || res.L2 != (cache.Stats{}) {
		t.Errorf("L1 %+v, L2 %+v: want every one of the %d loads to hit L1", res.L1, res.L2, loads)
	}
	const wantCycles = 25506
	if res.Cycles != wantCycles {
		t.Errorf("same-line loop takes %d cycles, want %d: probing L1 changed the forwarded latency",
			res.Cycles, wantCycles)
	}
}

// TestLoadChainCostsLatencyPerLink: a pointer chase is one load per link
// whose address depends on the previous load, so the window cannot
// overlap links and each costs at least the L1 hit latency. The loop
// overhead (compare, increment, branch) runs under the loads, so the
// per-link cost stays within a few cycles of the raw latency.
func TestLoadChainCostsLatencyPerLink(t *testing.T) {
	const links = 20000
	src := `
int p[512];
void main() {
  for (int i = 0; i < 512; i++) { p[i] = (i + 1) & 511; }
  int j = 0;
  for (int r = 0; r < 20000; r++) { j = p[j]; }
  print(j);
}`
	cfg := Simulated2Wide(16)
	cycles := cyclesFor(t, src, isa.AMD64, compiler.O2, cfg)
	perLink := float64(cycles) / links
	if lo := float64(cfg.L1Lat); perLink < lo {
		t.Errorf("chase costs %.2f cycles/link, below the L1 latency %v — links overlapped",
			perLink, lo)
	}
	if hi := float64(cfg.L1Lat) + 4; perLink > hi {
		t.Errorf("chase costs %.2f cycles/link, above %v — overhead is not hiding under the chain",
			perLink, hi)
	}
}

// TestEPICLoadBlockedByOlderStore: the in-order EPIC model has no
// forwarding network, so a load may not issue past an unresolved older
// store to the same line — it stalls until the store has written the
// cache. The different-line twin issues without the stall.
func TestEPICLoadBlockedByOlderStore(t *testing.T) {
	cfg := Itanium2
	cfg.L1Lat = 3 // widen the store-resolve window so the stall is visible
	// -O1 registerizes the loop locals, so the load issues right behind
	// the store (at -O0 the stack traffic between them already covers the
	// resolve window and the rule never fires).
	same := cyclesFor(t, fwdSrc("0"), isa.IA64, compiler.O1, cfg)
	diff := cyclesFor(t, fwdSrc("64"), isa.IA64, compiler.O1, cfg)
	if same <= diff {
		t.Errorf("EPIC same-line store→load loop (%d cycles) should be slower than different-line (%d)",
			same, diff)
	}
}

// callSrc builds the cross-call pair: both callees run an a/7 divide
// (the longest integer latency) every call, but only the "on" variant
// routes it into the return value the caller's serial chain consumes.
// With frame-versioned register readiness the "off" variant keeps the
// divide off the critical path; if callee register definitions aliased
// into the caller's frame (readiness keyed by bare RegID), both variants
// would crawl and the gap would collapse.
func callSrc(onPath bool) string {
	body := `g[0] = a / 7; return a + 1;`
	if onPath {
		body = `int d = a / 7; g[0] = d; return d + a;`
	}
	return `
int g[64];
int f(int a) { ` + body + ` }
void main() {
  int s = 1;
  for (int i = 0; i < 5000; i++) { s = f(s); }
  print(s);
  print(g[0]);
}`
}

// TestCrossCallRegisterReadiness: the divide only slows the caller's
// chain when its result actually flows through the return value.
func TestCrossCallRegisterReadiness(t *testing.T) {
	cfg := Simulated2Wide(16)
	cfg.ROB = 64 // room to retire past the off-path divide
	off := cyclesFor(t, callSrc(false), isa.AMD64, compiler.O2, cfg)
	on := cyclesFor(t, callSrc(true), isa.AMD64, compiler.O2, cfg)
	if float64(on) < 1.5*float64(off) {
		t.Errorf("on-path divide chain (%d cycles) should cost well over the off-path one (%d): "+
			"callee latency is leaking across frames", on, off)
	}
}
