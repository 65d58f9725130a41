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
// pipeline.ArtifactVersion; any other change must leave it alone. Every
// profile must also pass Validate.
var profileDigests = map[string]string{
	"adpcm/large1":       "4860e82d6a90a809",
	"adpcm/large2":       "f21ef2575fc22b12",
	"adpcm/small1":       "04c04e53a8f7ee8d",
	"adpcm/small2":       "1a64f5df21f12fcd",
	"basicmath/large":    "d3e10617ba7e782b",
	"basicmath/small":    "d18b3643368cb536",
	"bitcount/large":     "6eb9217328eeeb82",
	"bitcount/small":     "46949271adab3e61",
	"crc32/large":        "048f93ef2ba77982",
	"crc32/small":        "78a611c7dbffb9ab",
	"dijkstra/large":     "d20adf5b91a6caf2",
	"dijkstra/small":     "0148079c9875644f",
	"fft/large1":         "09468dc12a5af79d",
	"fft/large2":         "2b55caf97b1075a8",
	"fft/small1":         "e5c28b9521d7f6d5",
	"gsm/large1":         "4416831353261262",
	"gsm/large2":         "c67c1df160a4c63c",
	"gsm/small1":         "f000e4e5f6fcbe55",
	"gsm/small2":         "467664e0e9ffaee7",
	"jpeg/large1":        "20bd0556e5d9e8ae",
	"patricia/small":     "8600950a0da59554",
	"qsort/large":        "4364080f579a644a",
	"sha/large":          "70815aabfcb155ad",
	"sha/small":          "d292085dbc14142d",
	"stringsearch/large": "1374f5013d0bd0eb",
	"stringsearch/small": "82939623f04ffbe3",
	"susan/large1":       "a809c103b061dac9",
	"susan/large2":       "1aaa7e3afd227852",
	"susan/large3":       "405a7e0d73925390",
	"susan/small1":       "236523864a00dfb1",
	"susan/small2":       "1167d4ae2b29864b",
	"susan/small3":       "b3662a57f2bb14a5",
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
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
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
