package profile_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/compiler"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/workloads"
)

// profileDigests pins every workload's profile: FNV-64a of
// the stored profile encoding (its JSON) for the program compiled at the profiling point and
// run on the workload's inputs, recorded on linux/amd64. A change that
// alters profiles on purpose refreshes the table along with
// store.SchemaVersion; any other change must leave it alone.
var profileDigests = map[string]string{
	"adpcm/large1":       "35708b9a230eb9ff",
	"adpcm/large2":       "9799f601332f1e6a",
	"adpcm/small1":       "e468d2b2d8f6db15",
	"adpcm/small2":       "a1aba866f5869e7b",
	"basicmath/large":    "11e879228d295465",
	"basicmath/small":    "b35de66daaa08254",
	"bitcount/large":     "f6effcbf069f7ee3",
	"bitcount/small":     "505d3c202da6848e",
	"crc32/large":        "7d3ab9e86a20633e",
	"crc32/small":        "c786b382a803c0e1",
	"dijkstra/large":     "1214302003bf98b3",
	"dijkstra/small":     "aed55b5064625ff3",
	"fft/large1":         "cb83b31b518349ac",
	"fft/large2":         "b3b6acc23f29a555",
	"fft/small1":         "e2e87dfa2f200cfc",
	"gsm/large1":         "d1613ca97d89f9fe",
	"gsm/large2":         "a7c822801f7647b1",
	"gsm/small1":         "b7f1b25b227f6fc2",
	"gsm/small2":         "17f9ae339c2340fa",
	"jpeg/large1":        "8b48e7a46246c2df",
	"patricia/small":     "cd51e3c4ff22f39f",
	"qsort/large":        "4d8339e54aa3a027",
	"sha/large":          "bd70e18e9bd5f71e",
	"sha/small":          "605ed86bc7d0171e",
	"stringsearch/large": "3468adb3ed44f8f8",
	"stringsearch/small": "9308c4710b47c94d",
	"susan/large1":       "30406fe5df06063c",
	"susan/large2":       "d03d8147a1894799",
	"susan/large3":       "b229f2a683cca137",
	"susan/small1":       "3fd2cae1151bf71e",
	"susan/small2":       "ebf320b2c6380677",
	"susan/small3":       "43eda3ab453173d3",
}

// compileAtProfilingPoint compiles a workload the way the Profile stage
// does.
func compileAtProfilingPoint(tb testing.TB, w *workloads.Workload) *isa.Program {
	tb.Helper()
	ast, err := hlc.Parse(w.Source)
	if err != nil {
		tb.Fatalf("%s: %v", w.Name, err)
	}
	cp, err := hlc.Check(ast)
	if err != nil {
		tb.Fatalf("%s: %v", w.Name, err)
	}
	prog, err := compiler.Compile(cp, profile.Target, profile.Level)
	if err != nil {
		tb.Fatalf("%s: %v", w.Name, err)
	}
	return prog
}

func TestProfileDigests(t *testing.T) {
	all := workloads.All()
	if len(all) != len(profileDigests) {
		t.Errorf("%d workloads, %d pinned profiles", len(all), len(profileDigests))
	}
	for _, w := range all {
		p, err := profile.Collect(compileAtProfilingPoint(t, w), w.Setup, w.Name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(data)
		if got := fmt.Sprintf("%016x", h.Sum64()); got != profileDigests[w.Name] {
			t.Errorf("%s: profile digest %s, pinned %s", w.Name, got, profileDigests[w.Name])
		}
	}
}
