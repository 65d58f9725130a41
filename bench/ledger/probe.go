package main

import (
	"crypto/sha256"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The virtual machines this benchmark runs on share their hosts, and their
// speed drifts by tens of percent over minutes: two sets of runs of one
// commit, taken a quarter of an hour apart, differed by more than any bound
// a regression check could use. The run therefore times a fixed piece of
// work before and after its set-ups and passes — sorting, random table
// updates and SHA-256, none of it code from this repository — on `workers`
// goroutines at once, like the workloads, and expresses each timing in
// reference-host time: it is scaled by probeRefSeconds over the mean of the
// two probes around it. Raw timings and the probe are printed beside the
// metrics.

// probeRefSeconds is the probe's median time on the 2-vCPU Xeon virtual
// machine the benchmark was sized on. It only fixes the scale of reported
// timings; comparisons between commits do not depend on it.
const probeRefSeconds = 0.0075

// probeInterval spaces probes out for workloads whose passes are short.
const probeInterval = 250 * time.Millisecond

// prober holds the probe's buffers, allocated once so a probe does not
// depend on the state of the workload's heap.
type prober struct {
	bufs [workers]struct {
		xs    []int
		table []uint64
		data  []byte
	}
}

func newProber() *prober {
	p := &prober{}
	for i := range p.bufs {
		p.bufs[i].xs = make([]int, 1<<16)
		p.bufs[i].table = make([]uint64, 1<<16)
		p.bufs[i].data = make([]byte, 1<<16)
	}
	return p
}

// measure collects the workload's garbage, so the probe does not share the
// processors with a collection in progress, then returns the median of
// three probes in seconds.
func (p *prober) measure() float64 {
	runtime.GC()
	return median([]float64{p.probe(), p.probe(), p.probe()})
}

// probe runs the fixed work on `workers` goroutines and returns its wall
// time in seconds.
func (p *prober) probe() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := range p.bufs {
		b := &p.bufs[g]
		go func() {
			defer wg.Done()
			x := uint64(88172645463325252)
			for i := range b.xs {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				b.xs[i] = int(x >> 1)
				b.table[(x*0x9E3779B97F4A7C15)>>48]++
			}
			sort.Ints(b.xs)
			for i := 0; i < 32; i++ {
				s := sha256.Sum256(b.data)
				b.data[i] = s[0]
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}
