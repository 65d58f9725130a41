package compiler_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/isa"
)

// TestOptimizeTargetsMatchCompile checks the split between the middle
// end and the back ends: for every quick-suite workload and clone at
// every level, one Optimize finished by Target for each ISA must give
// exactly what Compile gives for that ISA. Unlike the grid oracle's
// digests, which are recorded on amd64, this holds on every GOARCH. The
// race subtest finishes one Optimized for the three ISAs concurrently and
// requires it unchanged afterwards.
func TestOptimizeTargetsMatchCompile(t *testing.T) {
	progs, err := quickPrograms()
	if err != nil {
		t.Fatal(err)
	}
	targets := []*isa.Desc{isa.X86, isa.AMD64, isa.IA64}
	for _, pr := range progs {
		for _, level := range compiler.Levels {
			o, err := compiler.Optimize(pr.cp, level)
			if err != nil {
				t.Fatalf("%s %v: %v", pr.name, level, err)
			}
			for _, target := range targets {
				got, err := o.Target(target)
				if err != nil {
					t.Fatalf("%s %s %v: %v", pr.name, target.Name, level, err)
				}
				want, err := compiler.Compile(pr.cp, target, level)
				if err != nil {
					t.Fatalf("%s %s %v: %v", pr.name, target.Name, level, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s %v: Optimize+Target differs from Compile", pr.name, target.Name, level)
				}
			}
		}
	}

	t.Run("race", func(t *testing.T) {
		for _, pr := range progs {
			for _, level := range compiler.Levels {
				o, err := compiler.Optimize(pr.cp, level)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := compiler.Optimize(pr.cp, level)
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				errs := make([]error, len(targets))
				for i, target := range targets {
					wg.Add(1)
					go func() {
						defer wg.Done()
						_, errs[i] = o.Target(target)
					}()
				}
				wg.Wait()
				for i, err := range errs {
					if err != nil {
						t.Fatalf("%s %s %v: %v", pr.name, targets[i].Name, level, err)
					}
				}
				if !reflect.DeepEqual(o, ref) {
					t.Errorf("%s %v: Target changed the Optimized it finished", pr.name, level)
				}
			}
		}
	})
}
