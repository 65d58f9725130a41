package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// opStat counts, times and sizes one class of store operation.
type opStat struct {
	count, nanos, bytes atomic.Uint64
}

func (s *opStat) add(start time.Time, n int) {
	s.count.Add(1)
	s.nanos.Add(uint64(time.Since(start)))
	s.bytes.Add(uint64(n))
}

// storeCounts is a snapshot of a timedBackend's counters.
type storeCounts struct {
	getCount, getBytes, putCount, putBytes uint64
	getSec, putSec, wipSec                 float64
}

func (a storeCounts) sub(b storeCounts) storeCounts {
	return storeCounts{
		getCount: a.getCount - b.getCount, getBytes: a.getBytes - b.getBytes,
		putCount: a.putCount - b.putCount, putBytes: a.putBytes - b.putBytes,
		getSec: a.getSec - b.getSec, putSec: a.putSec - b.putSec, wipSec: a.wipSec - b.wipSec,
	}
}

// timedBackend wraps a store.Backend and records, from outside the store
// package, how often and how long the pipeline reads artifacts (Get, Has),
// writes them (Put), and manages in-progress markers (CreateExclusive,
// Touch, Remove). The remaining coordination operations pass through.
type timedBackend struct {
	store.Backend
	get, put, wip opStat
}

func (b *timedBackend) Get(digest, kind, key string) ([]byte, bool) {
	start := time.Now()
	p, ok := b.Backend.Get(digest, kind, key)
	b.get.add(start, len(p))
	return p, ok
}

func (b *timedBackend) Has(digest, kind, key string) bool {
	start := time.Now()
	ok := b.Backend.Has(digest, kind, key)
	b.get.add(start, 0)
	return ok
}

func (b *timedBackend) Put(digest, kind, key string, payload []byte) error {
	start := time.Now()
	err := b.Backend.Put(digest, kind, key, payload)
	b.put.add(start, len(payload))
	return err
}

func (b *timedBackend) CreateExclusive(name string, data []byte) error {
	start := time.Now()
	err := b.Backend.CreateExclusive(name, data)
	b.wip.add(start, len(data))
	return err
}

func (b *timedBackend) Touch(name string) error {
	start := time.Now()
	err := b.Backend.Touch(name)
	b.wip.add(start, 0)
	return err
}

func (b *timedBackend) Remove(name string) error {
	start := time.Now()
	err := b.Backend.Remove(name)
	b.wip.add(start, 0)
	return err
}

// counts snapshots the decorator's counters; nil reads as zero.
func (b *timedBackend) counts() storeCounts {
	if b == nil {
		return storeCounts{}
	}
	sec := func(s *opStat) float64 { return time.Duration(s.nanos.Load()).Seconds() }
	return storeCounts{
		getCount: b.get.count.Load(), getBytes: b.get.bytes.Load(),
		putCount: b.put.count.Load(), putBytes: b.put.bytes.Load(),
		getSec: sec(&b.get), putSec: sec(&b.put), wipSec: sec(&b.wip),
	}
}

// stageSeconds reads the pipeline's own synth_pipeline_stage_seconds
// histogram sums from the registry's Prometheus exposition, the same
// numbers /metrics serves, keyed by stage name.
func stageSeconds(reg *telemetry.Registry) (map[string]float64, error) {
	out := map[string]float64{}
	if reg == nil {
		return out, nil
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	const prefix = `synth_pipeline_stage_seconds_sum{stage="`
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		stage, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			return nil, fmt.Errorf("unparsable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %q: %w", line, err)
		}
		out[stage] = v
	}
	return out, sc.Err()
}

// Microbenchmarks. Each runs one layer on a fixed input for a fixed amount
// of work, three times, and reports the median rate, so they read the same
// on every workload and every seed.
const (
	microWorkload = "crc32/small"
	microInstrs   = 30_000_000
	microAccesses = 20_000_000
	microTrials   = 3
)

// microbench measures the VM, timing-model and cache layers and adds their
// metrics to m.
func microbench(ctx context.Context, m map[string]float64) error {
	w := workloads.ByName(microWorkload)
	if w == nil {
		return fmt.Errorf("microbenchmark workload %s not found", microWorkload)
	}
	p := pipeline.New(pipeline.Options{Workers: 1})
	o0, err := p.Compile(ctx, w, isa.AMD64, compiler.O0)
	if err != nil {
		return err
	}
	if m["vm.fast_mips"], err = vmMIPS(o0, w, nil); err != nil {
		return err
	}
	var events uint64
	if m["vm.hooked_mips"], err = vmMIPS(o0, w, func(*vm.Event) { events++ }); err != nil {
		return err
	}
	if events == 0 {
		return errors.New("hooked VM microbenchmark observed no events")
	}
	ooo, ok := cpu.MachineByName("2-wide OoO")
	if !ok {
		return errors.New("machine 2-wide OoO not found")
	}
	for _, c := range []struct {
		prefix string
		cfg    cpu.Config
	}{{"cpu.ooo", ooo}, {"cpu.epic", cpu.Itanium2}} {
		prog, err := p.Compile(ctx, w, c.cfg.ISA, compiler.O2)
		if err != nil {
			return err
		}
		var rates []float64
		var cycles uint64
		for i := 0; i < microTrials; i++ {
			start := time.Now()
			res, err := cpu.Simulate(prog, w.Setup, c.cfg, 0)
			if err != nil {
				return fmt.Errorf("%s microbenchmark: %w", c.prefix, err)
			}
			rates = append(rates, float64(res.Instrs)/time.Since(start).Seconds()/1e6)
			if i > 0 && res.Cycles != cycles {
				return fmt.Errorf("%s microbenchmark: cycles %d then %d", c.prefix, cycles, res.Cycles)
			}
			cycles = res.Cycles
		}
		m[c.prefix+"_mips"] = median(rates)
		m[c.prefix+"_cycles"] = float64(cycles)
	}
	m["cache.maccesses_per_s"] = cacheRate()
	return nil
}

// vmMIPS interprets prog repeatedly, a fresh VM per run as profiling does,
// until microInstrs instructions have executed, and returns the median
// rate of three such trials in millions of instructions per second.
func vmMIPS(prog *isa.Program, w *workloads.Workload, hook vm.Hook) (float64, error) {
	var rates []float64
	for i := 0; i < microTrials; i++ {
		var dyn uint64
		var sec float64
		for dyn < microInstrs {
			m := vm.New(prog)
			if err := w.Setup(m); err != nil {
				return 0, err
			}
			start := time.Now()
			res, err := m.Run(vm.Config{Hook: hook})
			sec += time.Since(start).Seconds()
			if err != nil {
				return 0, fmt.Errorf("vm microbenchmark: %w", err)
			}
			dyn += res.DynInstrs
		}
		rates = append(rates, float64(dyn)/sec/1e6)
	}
	return median(rates), nil
}

// cacheRate drives a fixed two-level hierarchy (32KB/8-way L1, 256KB/8-way
// L2, 64-byte lines) with a fixed address stream mixing a sequential walk,
// a 4KB stride and pseudo-random accesses over 1MB, and returns the median
// of three trials in millions of accesses per second.
func cacheRate() float64 {
	var rates []float64
	for i := 0; i < microTrials; i++ {
		h := &cache.Hierarchy{
			L1:    cache.New(cache.Config{Name: "L1", Size: 32 << 10, LineSize: 64, Assoc: 8}),
			L2:    cache.New(cache.Config{Name: "L2", Size: 256 << 10, LineSize: 64, Assoc: 8}),
			L1Lat: 2, L2Lat: 12, MemLat: 200,
		}
		x := uint64(88172645463325252)
		var seq uint64
		start := time.Now()
		for n := 0; n < microAccesses; n++ {
			var addr uint64
			switch n % 3 {
			case 0:
				seq += 8
				addr = seq % (1 << 20)
			case 1:
				addr = uint64(n) * 4096 % (1 << 20)
			default:
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				addr = x % (1 << 20)
			}
			h.AccessLatency(addr)
		}
		rates = append(rates, microAccesses/time.Since(start).Seconds()/1e6)
	}
	return median(rates)
}
