package core

import (
	"encoding/binary"

	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/vm"
)

// builder checks, compiles, loads and runs the candidate clones of one
// Synthesize call. Calibration regenerates the clone from one seed and one
// scaled graph with other knob values, so most of a candidate's functions
// are its predecessor's, and now and then the whole candidate is. The
// builder keeps the previous candidate's functions checked and compiled,
// by their hlc.FuncKeys keys, and what the previous run observed: a new
// candidate costs the check and -O0 compile of its changed functions, a
// link, a load and a run; a repeat of the one just run is not run again.
// Measurements are deterministic, so reusing one changes no clone.
// Predecoded code is not kept: loading the linked program anew costs no
// more than relinking kept code, which would also stay resident between
// runs. Global storage is: every candidate loads into the one VM's
// arrays (vm.Reload), zeroed, instead of allocating its own. A builder
// serves one call and is not shared.
type builder struct {
	funcs map[string]*builtFunc // the previous candidate's functions
	// last is what the previous run observed, and lastKey its
	// candidate's key.
	last    observed
	lastKey string
	key     []byte // scratch for key encoding
	nextID  int
	stats   buildStats
	// vm runs every candidate; nil until the first one.
	vm *vm.VM
	// observe, when set, sees every candidate the builder measures (tests).
	observe func(*candidate)
}

// builtFunc is one function of a call's candidates.
type builtFunc struct {
	key string
	id  int              // unique within the call
	cf  *hlc.CheckedFunc // its check result
	obj *compiler.Object // its -O0 object; nil until a candidate holding it runs
}

// buildStats counts a builder's work.
type buildStats struct {
	measurements int // candidates run
	reused       int // candidates served a measurement run before
	funcsRebuilt int // functions compiled
}

// candidate is one candidate clone as the builder linked and ran it, or
// (linked nil) served the previous run's measurement.
type candidate struct {
	prog   *hlc.Program
	linked *isa.Program
	budget uint64
	meas   *measurement
}

func newBuilder() *builder { return &builder{} }

// check type-checks prog, checking only the functions the previous
// candidate did not have, and returns each function's entry. The builder
// then keeps the entries of prog's functions alone: a regeneration
// mostly repeats its predecessor, and keeping older candidates' code
// would cost memory for little reuse.
func (b *builder) check(prog *hlc.Program) (*hlc.CheckedProgram, []*builtFunc, error) {
	keys := hlc.NewFuncKeys(prog)
	fns := make([]*builtFunc, len(prog.Funcs))
	known := make([]*hlc.CheckedFunc, len(prog.Funcs))
	fresh := make([]string, len(prog.Funcs)) // the keys of functions not seen yet
	for i, fn := range prog.Funcs {
		b.key = keys.Append(b.key[:0], fn)
		if f := b.funcs[string(b.key)]; f != nil {
			fns[i], known[i] = f, f.cf
		} else {
			fresh[i] = string(b.key)
		}
	}
	cp, err := hlc.CheckWith(prog, known)
	if err != nil {
		return nil, nil, err
	}
	b.funcs = make(map[string]*builtFunc, len(fns))
	for i, f := range fns {
		if f == nil {
			b.nextID++
			f = &builtFunc{key: fresh[i], id: b.nextID, cf: cp.Funcs[i]}
			fns[i] = f
		}
		b.funcs[f.key] = f
	}
	return cp, fns, nil
}

// measure returns the measurement of prog run under budget: the previous
// run's when prog equals the candidate it ran, or else a run of prog
// linked from its functions' -O0 objects, compiling only the functions
// that have none yet.
func (b *builder) measure(prog *hlc.Program, budget uint64) (*measurement, error) {
	cp, fns, err := b.check(prog)
	if err != nil {
		return nil, err
	}
	b.key = binary.AppendUvarint(b.key[:0], budget)
	b.key = hlc.AppendGlobalsKey(b.key, prog.Globals)
	for _, f := range fns {
		b.key = binary.AppendUvarint(b.key, uint64(f.id))
	}
	if b.lastKey == string(b.key) {
		b.stats.reused++
		m := &measurement{cp, b.last}
		if b.observe != nil {
			b.observe(&candidate{prog: prog, budget: budget, meas: m})
		}
		return m, nil
	}
	runKey := string(b.key)
	var fresh []int
	for i, f := range fns {
		if f.obj == nil {
			fresh = append(fresh, i)
		}
	}
	built, err := compiler.CompileFuncs(cp, fresh, profile.Target)
	if err != nil {
		return nil, err
	}
	for k, i := range fresh {
		fns[i].obj = built[k]
	}
	b.stats.funcsRebuilt += len(fresh)
	objs := make([]*compiler.Object, len(fns))
	for i, f := range fns {
		objs[i] = f.obj
	}
	mp, err := compiler.Link(cp, profile.Target, objs)
	if err != nil {
		return nil, err
	}
	if b.vm == nil {
		b.vm = vm.New(mp)
	} else {
		b.vm.Reload(mp)
	}
	obs, err := measureRun(b.vm, budget)
	if err != nil {
		return nil, err
	}
	b.lastKey, b.last = runKey, obs
	m := &measurement{cp, obs}
	b.stats.measurements++
	if b.observe != nil {
		b.observe(&candidate{prog: prog, linked: mp, budget: budget, meas: m})
	}
	return m, nil
}

// measurement is one calibration run of a candidate clone: the
// type-checked program it compiled, and what the run observed.
type measurement struct {
	cp *hlc.CheckedProgram
	observed
}

// observed is what one calibration run observes.
type observed struct {
	dyn    uint64                 // dynamic instructions (the budget when truncated)
	mix    [isa.NumClasses]uint64 // dynamic instructions per class
	missPI float64                // misses per instruction at the profiling cache
}

// measureRun executes a loaded candidate clone, compiled at the profiling
// point, to obtain its true dynamic instruction count, class mix, and
// per-access miss rate at the profiling cache. The clone is
// self-contained (stride arrays start zeroed), so no input setup is
// needed.
func measureRun(vmc *vm.VM, budget uint64) (observed, error) {
	// The trace consumer counts executions per site and the mix is
	// summed after the run: consecutive sites rarely share a class, while
	// a per-class counter would chain every increment on the one before.
	lay := vmc.Layout()
	counts := make([]uint64, lay.NumSites())
	c := cache.New(profile.DefaultCache)
	var misses uint64
	res, err := vmc.Run(vm.Config{
		MaxInstrs: budget,
		Trace: func(t *vm.Trace) {
			for _, sg := range t.Segs {
				seg := counts[sg.First : sg.First+sg.N]
				for i := range seg {
					seg[i]++
				}
			}
			for _, a := range t.Addrs {
				if !c.Access(a) {
					misses++
				}
			}
		},
	})
	if err != nil {
		if t, ok := err.(*vm.Trap); !ok || t.Reason != vm.TrapBudgetExhausted {
			return observed{}, err
		}
		// Budget exhausted: report the cap.
	}
	obs := observed{dyn: res.DynInstrs}
	lay.Walk(func(s int, _ vm.SiteLoc, in *isa.Instr) {
		obs.mix[in.Class()] += counts[s]
	})
	if res.DynInstrs > 0 {
		obs.missPI = float64(misses) / float64(res.DynInstrs)
	}
	return obs, nil
}
