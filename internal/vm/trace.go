package vm

import "repro/internal/isa"

// Segment is one executed straight-line run of instruction sites: the N
// consecutive sites from First, in the VM's Layout numbering. A segment
// starts where control arrives (a function entry, a branch or jump
// target, the instruction after a returning call) and ends with the BR,
// JMP, CALL or RET that leaves it, or where a trap or the instruction
// budget stops the run. It never crosses a basic block boundary.
type Segment struct {
	First, N int32
	// Taken is the outcome of the BR that closes the segment; it is
	// false for every other segment.
	Taken bool
}

// Trace is one batch of an instrumented run: its segments in execution
// order, and the data address of every executed memory instruction
// (LD, ST, LDL, STL) in the same order. Expanding the segments site by
// site, taking the next address at each memory site, gives the run's
// executed instruction stream exactly.
type Trace struct {
	Segs  []Segment
	Addrs []uint64
}

// Batch sizes of a traced run: a batch is handed over when it holds
// segBatch segments or, at a segment end, addrBatch addresses. Both
// buffers are reused, so a consumer sees at most ~40 KB at a time, which
// it reads while the batch is still in cache.
const (
	segBatch  = 1024
	addrBatch = 4096
)

// recorder buffers a traced run's segments and addresses and hands them
// to the consumer batch by batch. A VM keeps its recorder, so a VM run
// many times (synthesis calibration) allocates its buffers once.
type recorder struct {
	fn    func(*Trace)
	batch Trace
}

// start readies r to record a run for fn.
func (r *recorder) start(fn func(*Trace)) *recorder {
	if r.batch.Segs == nil {
		r.batch = Trace{
			Segs: make([]Segment, 0, segBatch),
			// The address check waits for a segment end, so leave room
			// for a block's worth past the threshold (append grows the
			// buffer for a longer one).
			Addrs: make([]uint64, 0, addrBatch+64),
		}
	}
	r.fn = fn
	r.batch.Segs, r.batch.Addrs = r.batch.Segs[:0], r.batch.Addrs[:0]
	return r
}

// seg records a segment and hands the batch over when it is full.
func (r *recorder) seg(first, n int32, taken bool) {
	r.batch.Segs = append(r.batch.Segs, Segment{First: first, N: n, Taken: taken})
	if len(r.batch.Segs) == segBatch || len(r.batch.Addrs) >= addrBatch {
		r.flush()
	}
}

// flush hands the buffered batch to the consumer, if it holds anything.
func (r *recorder) flush() {
	if len(r.batch.Segs) == 0 {
		return
	}
	r.fn(&r.batch)
	r.batch.Segs, r.batch.Addrs = r.batch.Segs[:0], r.batch.Addrs[:0]
}

// hookTrace expands each batch into the per-instruction Events a Hook
// observes: one event per site, an address at each memory site, and the
// closing BR's outcome.
func (vm *VM) hookTrace(hook Hook) func(*Trace) {
	classes := vm.layout.Classes()
	var ev Event
	return func(t *Trace) {
		a := 0
		for _, sg := range t.Segs {
			last := sg.First + sg.N - 1
			for s := sg.First; s <= last; s++ {
				ev = Event{Site: int(s), Taken: s == last && sg.Taken}
				if c := classes[s]; c == isa.ClassLoad || c == isa.ClassStore {
					ev.IsMem, ev.Addr = true, t.Addrs[a]
					a++
				}
				hook(&ev)
			}
		}
	}
}
