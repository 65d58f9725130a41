package store_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/vm"
)

// recordingBackend keeps every program payload a pipeline writes through.
type recordingBackend struct {
	store.Backend
	mu       sync.Mutex
	programs [][]byte
}

func (b *recordingBackend) Put(digest, kind, key string, payload []byte) error {
	if kind == "program" {
		b.mu.Lock()
		b.programs = append(b.programs, payload)
		b.mu.Unlock()
	}
	return b.Backend.Put(digest, kind, key, payload)
}

// programBackend answers every program read with one fixed payload, as a
// store peer holding arbitrary bytes under a compile key would.
type programBackend struct {
	store.Backend
	payload []byte
}

func (b programBackend) Get(digest, kind, key string) ([]byte, bool) {
	if kind == "program" {
		return b.payload, true
	}
	return b.Backend.Get(digest, kind, key)
}

func openStore(t testing.TB) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// FuzzDecodeProgram asserts that whatever bytes a store holds under a
// compiled program's key, a pipeline reading them hands back a program
// the VM loads and runs without panicking: a payload the pipeline's
// decoder accepts must be safe to run, and one it rejects reads as a miss
// and is recompiled. The seeds are a wrong-shape payload and the bytes a
// pipeline stores for every quick-suite program on two ISAs and levels.
func FuzzDecodeProgram(f *testing.F) {
	f.Add([]byte(`{}`))
	rec := &recordingBackend{Backend: openStore(f)}
	p := pipeline.New(pipeline.Options{Workers: 1, Store: rec})
	for _, w := range experiments.Quick() {
		for _, target := range []*isa.Desc{isa.AMD64, isa.IA64} {
			for _, level := range []compiler.OptLevel{compiler.O0, compiler.O3} {
				if _, err := p.Compile(context.Background(), w, target, level); err != nil {
					f.Fatalf("%s %s %v: %v", w.Name, target.Name, level, err)
				}
			}
		}
	}
	for _, data := range rec.programs {
		f.Add(data)
	}
	w := experiments.Quick()[0]
	f.Fuzz(func(t *testing.T, data []byte) {
		p := pipeline.New(pipeline.Options{Workers: 1, Store: programBackend{Backend: openStore(t), payload: data}})
		prog, err := p.Compile(context.Background(), w, isa.AMD64, compiler.O0)
		if err != nil {
			t.Fatal(err)
		}
		if s := p.CacheStats(); s.DiskHits+s.DiskErrors == 0 {
			t.Fatalf("stored payload never reached the decoder: %+v", s)
		}
		// Only a panic fails the target; a trap is a valid outcome. A
		// shallow stack keeps a recursive program's frames small.
		vm.New(prog).Run(vm.Config{MaxInstrs: 10_000, MaxDepth: 64})
	})
}
