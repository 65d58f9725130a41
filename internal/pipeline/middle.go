package pipeline

import (
	"context"
	"sync"

	"repro/internal/compiler"
	"repro/internal/hlc"
	"repro/internal/isa"
)

// middleISAs are the targets a program's middle end is shared between.
var middleISAs = [...]*isa.Desc{isa.X86, isa.AMD64, isa.IA64}

// middleEnds shares the target-independent half of compilation
// (compiler.Optimize) between the ISAs one program is compiled for at one
// level: the compile computations of the three ISAs take one Optimized
// from here and finish it with Target. It is a memo, not a cache tier:
// it is never persisted and adds no store traffic or counts, and an entry
// is dropped once every ISA of middleISAs has been compiled from it. A run
// that compiles a program for fewer ISAs keeps the entry as long as the
// pipeline, beside the compiled programs the artifact cache keeps anyway.
//
// At -O0 the shared part is lowering alone, and the profiling point
// compiles only for one ISA there, so -O0 compiles bypass the memo.
type middleEnds struct {
	mu sync.Mutex
	m  map[Key]*middleEnd
	// optimize is compiler.Optimize; tests count calls through it.
	optimize func(*hlc.CheckedProgram, compiler.OptLevel) (*compiler.Optimized, error)
}

// middleEnd is one program's Optimized at one level, in flight or done.
type middleEnd struct {
	ready  chan struct{}
	opt    *compiler.Optimized
	err    error
	served uint8 // bit i: middleISAs[i] has been compiled from opt
}

func newMiddleEnds() *middleEnds {
	return &middleEnds{m: make(map[Key]*middleEnd), optimize: compiler.Optimize}
}

// compile compiles cp, the program k's compile computation compiles, for
// target at k's level. Above -O0 the Optimized comes from the entry for k
// without its ISA, which the first of the ISAs to arrive builds while the
// others wait. A failed Optimize is not kept.
func (m *middleEnds) compile(ctx context.Context, k Key, cp *hlc.CheckedProgram, target *isa.Desc) (*isa.Program, error) {
	if k.Level == compiler.O0 {
		return compiler.Compile(cp, target, k.Level)
	}
	k.ISA = ""
	m.mu.Lock()
	e, ok := m.m[k]
	if !ok {
		e = &middleEnd{ready: make(chan struct{})}
		m.m[k] = e
	}
	m.mu.Unlock()
	if !ok {
		e.opt, e.err = m.optimize(cp, k.Level)
		close(e.ready)
	} else {
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	m.mu.Lock()
	if e.err != nil {
		if m.m[k] == e {
			delete(m.m, k)
		}
	} else {
		for i, d := range middleISAs {
			if d == target {
				e.served |= 1 << i
			}
		}
		if e.served == 1<<len(middleISAs)-1 {
			delete(m.m, k)
		}
	}
	m.mu.Unlock()
	if e.err != nil {
		return nil, e.err
	}
	return e.opt.Target(target)
}
