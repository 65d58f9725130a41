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
	"adpcm/large1":       "5ec7e6194d968421",
	"adpcm/large2":       "bf4a87eb50d8b6a4",
	"adpcm/small1":       "a20f8e78ce5004cb",
	"adpcm/small2":       "988e38943684c7cf",
	"basicmath/large":    "2108bf4274b11cdc",
	"basicmath/small":    "0482a2a367bcba81",
	"bitcount/large":     "51f66193d852590b",
	"bitcount/small":     "09721a7828683cb0",
	"crc32/large":        "459b9bb43db3f5e4",
	"crc32/small":        "071e83407dfde487",
	"dijkstra/large":     "eb05dd69f584378e",
	"dijkstra/small":     "7b883f35b4b7f3e1",
	"fft/large1":         "610662d481ee91a1",
	"fft/large2":         "47d085181a60baca",
	"fft/small1":         "72e8bfe899aa849d",
	"gsm/large1":         "0b4baf1370ffc660",
	"gsm/large2":         "1bc4ae83dce22078",
	"gsm/small1":         "d691ce8394e75e41",
	"gsm/small2":         "80a350cc82a8ad6f",
	"jpeg/large1":        "66b836f35408a9fa",
	"patricia/small":     "34291f92d42eb421",
	"qsort/large":        "0a9423fc6af5bcf5",
	"sha/large":          "7b935fb93e47d802",
	"sha/small":          "6469a78e0a379fd8",
	"stringsearch/large": "be1f4e4659965c55",
	"stringsearch/small": "91e7acbe63471c29",
	"susan/large1":       "8ed0906254da4507",
	"susan/large2":       "0644ea9f9c10276c",
	"susan/large3":       "868e540cc2953dc6",
	"susan/small1":       "97d4c81660da7045",
	"susan/small2":       "c54cc761d7dc7f0f",
	"susan/small3":       "f0ae95e84f0635f5",
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
