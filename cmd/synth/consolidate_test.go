package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hlc"
	"repro/internal/profile"
)

// TestSynthesizeFromProfile checks the profile-load flow end to end at the
// CLI: `synth profile` output fed back through `synth synthesize -from`
// produces the same clone as the named-workload flow.
func TestSynthesizeFromProfile(t *testing.T) {
	profJSON := drainRun(t, "profile", "-workload", "crc32/small", "-seed", "1")
	path := filepath.Join(t.TempDir(), "crc32.json")
	if err := os.WriteFile(path, []byte(profJSON), 0o644); err != nil {
		t.Fatal(err)
	}

	fromFile := drainRun(t, "synthesize", "-from", path, "-seed", "1")
	named := drainRun(t, "synthesize", "-workload", "crc32/small", "-seed", "1")
	if fromFile != named {
		t.Error("synthesize -from differs from synthesize -workload for the same profile")
	}
}

// TestSynthesizeFromPreStreamProfile feeds `synth synthesize -from` a
// profile written before stream profiling (memory sites without stream
// descriptors): it must exit non-zero with an error naming the cause,
// not synthesize a clone whose every access always hits.
func TestSynthesizeFromPreStreamProfile(t *testing.T) {
	p := loadProfileString(t, drainRun(t, "profile", "-workload", "crc32/small", "-seed", "1"))
	for _, n := range p.Graph.Nodes {
		for i := range n.Instrs {
			n.Instrs[i].Stream = nil
		}
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"synthesize", "-from", path}, &out, &errb)
	if code == 0 || !strings.Contains(errb.String(), "pre-stream profile") || !strings.Contains(errb.String(), path) {
		t.Errorf("synthesize -from a pre-stream profile: exit %d, stderr %q", code, errb.String())
	}
	if out.Len() != 0 {
		t.Error("synthesize -from a pre-stream profile wrote a clone")
	}
}

// TestSynthesizeFlagConflicts covers the mutually exclusive flag paths.
func TestSynthesizeFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"synthesize", "-workload", "crc32/small", "-from", "x.json"},
		{"synthesize", "-from", "x.json", "-validate"},
		{"synthesize", "-from", "/no/such/file.json"},
	} {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code == 0 {
			t.Errorf("synth %s should fail", strings.Join(args, " "))
		}
	}
}

// TestConsolidateCLI merges two workload profiles and checks the merged
// profile's totals; with -synthesize it checks the consolidated clone is a
// valid HLC program.
func TestConsolidateCLI(t *testing.T) {
	p1 := loadProfileString(t, drainRun(t, "profile", "-workload", "crc32/small", "-seed", "1"))
	p2 := loadProfileString(t, drainRun(t, "profile", "-workload", "dijkstra/small", "-seed", "1"))

	mergedJSON := drainRun(t, "consolidate", "-name", "duo", "-seed", "1",
		"crc32/small", "dijkstra/small")
	merged := loadProfileString(t, mergedJSON)
	if merged.Workload != "duo" {
		t.Errorf("merged name = %q, want duo", merged.Workload)
	}
	if merged.TotalDyn != p1.TotalDyn+p2.TotalDyn {
		t.Errorf("merged TotalDyn = %d, want %d", merged.TotalDyn, p1.TotalDyn+p2.TotalDyn)
	}
	if len(merged.Graph.FuncNames) != len(p1.Graph.FuncNames)+len(p2.Graph.FuncNames) {
		t.Error("merged graph lost functions")
	}

	// A saved profile file mixes with workload names as inputs.
	path := filepath.Join(t.TempDir(), "crc32.json")
	if err := os.WriteFile(path, []byte(drainRun(t, "profile", "-workload", "crc32/small", "-seed", "1")), 0o644); err != nil {
		t.Fatal(err)
	}
	mixed := loadProfileString(t, drainRun(t, "consolidate", "-seed", "1", path, "dijkstra/small"))
	if mixed.TotalDyn != merged.TotalDyn {
		t.Errorf("file+name consolidation TotalDyn = %d, want %d", mixed.TotalDyn, merged.TotalDyn)
	}

	src := drainRun(t, "consolidate", "-synthesize", "-seed", "1",
		"crc32/small", "dijkstra/small")
	if _, err := hlc.Parse(src); err != nil {
		t.Errorf("consolidated clone does not parse: %v", err)
	}

	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"consolidate"}, &out, &errb); code == 0 {
		t.Error("consolidate with no inputs should fail")
	}
}

// TestWarmStoreStatsLine runs the same experiments twice against one store
// directory and pins the stats-line property CI asserts: the warm run
// reports zero compile and profile computations. It also pins the line's
// format — `computed ... compile=N profile=N` — which CI greps.
func TestWarmStoreStatsLine(t *testing.T) {
	dir := t.TempDir()
	statsLine := func() string {
		var out, errb bytes.Buffer
		args := []string{"experiments", "-suite", "tiny", "-only", "table2",
			"-store", dir, "-stats", "-seed", "1"}
		if code := run(context.Background(), args, &out, &errb); code != 0 {
			t.Fatalf("exit %d: %s", code, errb.String())
		}
		return errb.String()
	}
	cold := statsLine()
	if !strings.Contains(cold, "computed parse=") {
		t.Fatalf("stats line format drifted (CI greps it): %q", cold)
	}
	if strings.Contains(cold, "compile=0") {
		t.Fatalf("cold run should compile: %q", cold)
	}
	warm := statsLine()
	if !strings.Contains(warm, "compile=0 profile=0") {
		t.Errorf("warm run recomputed compile/profile artifacts: %q", warm)
	}
}

func loadProfileString(t *testing.T, s string) *profile.Profile {
	t.Helper()
	p, err := profile.Load(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return p
}
