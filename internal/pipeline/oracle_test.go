package pipeline_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/compiler"
	"repro/internal/experiments"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// cloneSourceDigests pins each quick-suite clone's HLC source at the
// experiments' seed (FNV-64a of Clone.Source), recorded on linux/amd64.
// A change that alters clone bytes on purpose refreshes the table along
// with the store schema; any other change must leave it alone.
var cloneSourceDigests = map[string]string{
	"adpcm/small1":       "f7063cdc076ba274",
	"basicmath/small":    "641c2fff124f4801",
	"bitcount/small":     "20c64adbd328a4e0",
	"crc32/small":        "523eae7eab0b03c7",
	"dijkstra/small":     "f0eeb8f3f02ba21f",
	"fft/small1":         "8404aa475bcc1ecf",
	"gsm/small1":         "234ef479f2bc5e31",
	"jpeg/large1":        "9a6db336ef041822",
	"patricia/small":     "c91f5aef96939793",
	"qsort/large":        "cc906f6b82ba18bb",
	"sha/small":          "66c7e36d9c8c7f73",
	"stringsearch/small": "c0fee8aad869abcf",
	"susan/small2":       "f9fd4aa0767190b3",
}

// gridPoints lists the 12 (ISA, level) compilation points in the order of
// each compiledProgramDigests row.
var gridPoints = func() (pts []gridPoint) {
	for _, target := range []*isa.Desc{isa.X86, isa.AMD64, isa.IA64} {
		for _, level := range compiler.Levels {
			pts = append(pts, gridPoint{target, level})
		}
	}
	return pts
}()

type gridPoint struct {
	target *isa.Desc
	level  compiler.OptLevel
}

// compiledProgramDigests pins the compiler's output: FNV-64a of
// the stored program encoding for every quick-suite original and clone at the
// experiments' seed, one row per ISA (x86v, amd64v, ia64v) and one column
// per level (-O0 to -O3), recorded on linux/amd64. A change that alters
// compiled code on purpose refreshes the table along with
// pipeline.ArtifactVersion; a compiler speed-up must leave it alone.
var compiledProgramDigests = map[string][12]string{
	"adpcm/small1": {
		"1181c77dd786c57f", "bdad73cabb25dec5", "306ea336cd7d3815", "306ea336cd7d3815",
		"b837d1a5a2e532bf", "bff511310c204af7", "96563a03b7fe239d", "96563a03b7fe239d",
		"82d347ee3756b69f", "b5b19979fa8da175", "630018f15177ea5c", "630018f15177ea5c",
	},
	"adpcm/small1 clone": {
		"e90a078e25d57b37", "9ecc6cad7b572115", "37f1f826ac57363a", "37f1f826ac57363a",
		"5334154aee2a81a5", "3b546742aef442b8", "0902031e72e12222", "0902031e72e12222",
		"3f03af14f9aab625", "4fbf3b999a2d9234", "a70e8d828efa15d2", "a70e8d828efa15d2",
	},
	"basicmath/small": {
		"a8a467f13216d68a", "e47e391be653dcd7", "1c9c34cc7c22a495", "1c9c34cc7c22a495",
		"472b2300ffeaa957", "b9fb55ea4456bf1d", "cf3e1ad16b3dfe61", "cf3e1ad16b3dfe61",
		"a6141bba720cd10c", "be83f84a9c9c8b38", "50c7a8a80b092a63", "50c7a8a80b092a63",
	},
	"basicmath/small clone": {
		"e8d704236556b4c7", "4dfbe208d1c6ff70", "9e0ea6490d98cd32", "9e0ea6490d98cd32",
		"0565058db403e0a5", "d583409128956eac", "86281b7ac1493ce0", "86281b7ac1493ce0",
		"d33a9a5b9afb23c1", "cc5552bd29515c27", "e7cf7e1160ae7838", "e7cf7e1160ae7838",
	},
	"bitcount/small": {
		"27144dbaeaca7335", "e4ea3daff2b895b7", "f12e51f43f664443", "9eb5839c1e5ce7b9",
		"85b6081e76f17056", "0c84100a18c4ea53", "e03ef98c06229ceb", "5441c5625cbdec25",
		"6340d28dc941a655", "752545bc860955cf", "47f7a3481313b6c6", "068bd02c45eda7fb",
	},
	"bitcount/small clone": {
		"cf58dd7c01cb1828", "48d4bbcff8ffbf99", "db391746b1f12adf", "db391746b1f12adf",
		"45ba873b275bd9b0", "6c59bcc863f11dea", "51532f2363b32b27", "51532f2363b32b27",
		"dabbb4c1c86a7148", "340136824f4af2ea", "00848fbb06a18ab8", "00848fbb06a18ab8",
	},
	"crc32/small": {
		"13330ade83bb6213", "8a422d76b96fbf6e", "332f81de251f68e0", "332f81de251f68e0",
		"67070c8c496a130b", "3cfb59ae3c61cacd", "ad728f734b66eb94", "ad728f734b66eb94",
		"aa725e2e88ef4b35", "8186ee6e330859b4", "efb4fc5c049f05d3", "efb4fc5c049f05d3",
	},
	"crc32/small clone": {
		"60e994168861ae1b", "de2304927dbf4d28", "1ebbe9d27cdb0983", "1ebbe9d27cdb0983",
		"84f9569a27bb9947", "e65abb3e8f9472e9", "1c62ba8a7eaa4d59", "1c62ba8a7eaa4d59",
		"bc93afefba1a8dd3", "34becb1e1bab6480", "2d6d9919e66678f2", "2d6d9919e66678f2",
	},
	"dijkstra/small": {
		"9b7183e2d2d00f19", "1dd865b5863acd56", "04ceda4baa7bdc18", "04ceda4baa7bdc18",
		"b9ae46d2ac757bbd", "7d999ee7ba964e06", "4e1f317eeae345ed", "4e1f317eeae345ed",
		"1321b26ec5aa9e92", "727b6c80e3f6704d", "aa31629c8bd75546", "aa31629c8bd75546",
	},
	"dijkstra/small clone": {
		"0fc5bee0f5f208fe", "63499c218b48ce42", "7952c1c1f0acfeab", "7952c1c1f0acfeab",
		"79bf4274d3a9b1a8", "f9565a458e9caeca", "e7852d91bcd3b8bd", "e7852d91bcd3b8bd",
		"719886b5cb905e34", "458a10a54926f78b", "9031151c065bc9f2", "9031151c065bc9f2",
	},
	"fft/small1": {
		"8e0f2a04476f15ce", "c66ea48190c1dccb", "4f4555ff9bcaec72", "4f4555ff9bcaec72",
		"7ee556ceb6918314", "eda505d53e4964b5", "5a399e17daca174e", "5a399e17daca174e",
		"a0ce71194f0bb18b", "ab900e20fe7ae22d", "1b43e72373ca73fd", "1b43e72373ca73fd",
	},
	"fft/small1 clone": {
		"d3c76e830a19d661", "25f172051d89f1bd", "08f55012115d9944", "08f55012115d9944",
		"dda41a1e704daec8", "412408d59630f81a", "5997162d19befcbd", "5997162d19befcbd",
		"6ee8435e92a06f43", "744eae2241bed5e0", "ef491ea36c646a5d", "ef491ea36c646a5d",
	},
	"gsm/small1": {
		"73e54fd5981ac1b7", "0cac99ecfdf920fd", "35eae72adf17bf3d", "35eae72adf17bf3d",
		"2511b25928f1b097", "0d37e602419a4670", "b2bdd46d3e59e539", "b2bdd46d3e59e539",
		"8716b8b51d3b2b51", "0026b244810d4482", "8f0397cd9d53fede", "8f0397cd9d53fede",
	},
	"gsm/small1 clone": {
		"71d7e658dd2b636c", "41ca7c0c92000e47", "cef73d923400b2bc", "cef73d923400b2bc",
		"ff03fff0feb9cdde", "a3091514d7df20db", "7d7303ead952f52e", "7d7303ead952f52e",
		"296393066bdc1e1e", "a2327c4400d3e0e5", "b08d09a71a25e240", "b08d09a71a25e240",
	},
	"jpeg/large1": {
		"2f4d67e6a0e1629c", "ee0a487ab9d317f5", "1fee11c48a490681", "1fee11c48a490681",
		"39f51c350ef9a8e5", "be5cd19e583060c8", "37e56ae0ed7202e2", "37e56ae0ed7202e2",
		"9bea0168d234ec31", "ebea0b78f64bca16", "786d2c5358292324", "786d2c5358292324",
	},
	"jpeg/large1 clone": {
		"158aeae92c06fbf5", "26e36bc601545643", "e7e04d0b6d9c1e3d", "e7e04d0b6d9c1e3d",
		"07686ef434753590", "306d3e43d4f09e73", "47c077c4fc3f8ed9", "47c077c4fc3f8ed9",
		"fed3794eb7b25f7b", "6d5220b7b36423b9", "095f5b420684d87f", "095f5b420684d87f",
	},
	"patricia/small": {
		"93833160a2c2e3ad", "6c6a93d2f5f8334d", "9aa925dd0279ae8c", "9aa925dd0279ae8c",
		"8f38fe6240b672ac", "301c7542a378387d", "b9f2ead77f3265c3", "b9f2ead77f3265c3",
		"1924635e80e39b27", "7fb93b63a528bc3d", "f8ede79de5d7c5b5", "f8ede79de5d7c5b5",
	},
	"patricia/small clone": {
		"b76f688800918107", "dc1cda21875d5521", "e77dd4efda33ef79", "048a3d5fa5763a64",
		"fc239f161410e64b", "3df1cf79db8cc2b2", "69f037a6a4664864", "ddcef7d4efacb21a",
		"5d42a5b4aa2fffd2", "fdf66e2e20be6d9f", "bbe9b3675a0330f6", "dbb3b214067f1db0",
	},
	"qsort/large": {
		"f1a7fc38e8b19345", "663c20534d84a6d7", "10c3cae0f6c91a95", "10c3cae0f6c91a95",
		"4688a2523a0d1c33", "53c925a116690794", "2e58f7f824b0a9a9", "2e58f7f824b0a9a9",
		"3ff1fae5be09d0b5", "0c6328c5aa6e66b7", "633188860efeae56", "633188860efeae56",
	},
	"qsort/large clone": {
		"86df9293a6392030", "4f52c72ac0589f06", "feb091b2f76df93b", "feb091b2f76df93b",
		"2a0ff39a5d7ca2c0", "f15f07c3dad9f641", "ddbfff3e4b4c7b27", "ddbfff3e4b4c7b27",
		"5a8479c3ac6f9106", "aca4fbcb1e558154", "cec8ea27ab08382e", "cec8ea27ab08382e",
	},
	"sha/small": {
		"cdde0244ec93e5e2", "ef00f33253aa28d8", "84ed842527a169a5", "0f1772cd7c0c5869",
		"eae72de16ce1f5af", "ffff584a9b1e2cd4", "9cc41932e375143d", "af4c9f309f1c413f",
		"dbf14e5c03ecc2bc", "1f4349bdfac92db7", "ab19bc856330b01a", "576762328e3a0769",
	},
	"sha/small clone": {
		"d870fca4a4549200", "df6cb8ccfd3ab5dc", "e6dcf1e9d5b371a3", "e6dcf1e9d5b371a3",
		"8c5e85e481f93195", "cdf006d149a4f64f", "90e4bc2a294f2b80", "90e4bc2a294f2b80",
		"497c9ec40edc1bff", "8092b54061346d07", "3acea54e39e006f5", "3acea54e39e006f5",
	},
	"stringsearch/small": {
		"60051a5650467813", "e521325d99454ea9", "9f82ac79a5d8b6d5", "9f82ac79a5d8b6d5",
		"996e5a6ee82768e3", "b2a6a6a8ee8d09c9", "946181cc623a83c2", "946181cc623a83c2",
		"2834443d9a22b1ea", "d549f0b1dbaa30a0", "c633467568a761d0", "c633467568a761d0",
	},
	"stringsearch/small clone": {
		"2a6ca76507d04e2e", "df1649063acb77fa", "826c5dc529ce33f8", "826c5dc529ce33f8",
		"d2bb61239ac63a0e", "7351ca8d2f7776d4", "db42d2f76c2202bd", "db42d2f76c2202bd",
		"f93166d095fec53f", "74a4524760fbd938", "e84a2bf254c273fa", "e84a2bf254c273fa",
	},
	"susan/small2": {
		"5e0ac4a494369a95", "e24d0b7f9ddb4687", "4738cba0f4746df6", "4738cba0f4746df6",
		"50a2c54a51a57c10", "11a4ee77b6363ffd", "0148bf3ec779d21f", "0148bf3ec779d21f",
		"592c3fd6327a13bf", "29fd015c5cc7ee50", "0772b1be34cc525e", "0772b1be34cc525e",
	},
	"susan/small2 clone": {
		"e85f7924e511b222", "0ff38c8e0e00f29f", "71eda493cada0abd", "71eda493cada0abd",
		"2624e42dba0d24ae", "8a693990f13102ed", "e666110031fd5590", "e666110031fd5590",
		"2fccd106cb6ccc22", "7dba82f23fa7f116", "a4971f2e9fc41d85", "a4971f2e9fc41d85",
	},
}

// TestCloneGridOracle uses every quick-suite clone as a compiler test: a
// clone is one deterministic program, so each (ISA, level) it compiles to
// must print the same values. A divergence is a miscompilation (or a VM
// bug) on the point that disagrees with x86v -O0. The grid multiplies each
// clone's compile and run by 12, which is why it is a test and not part of
// every Pipeline.Validate. On amd64 it also checks every clone's source
// against cloneSourceDigests, and every compiled original and clone
// against compiledProgramDigests.
func TestCloneGridOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes and runs the quick suite's clones on 12 compilation points")
	}
	ctx := context.Background()
	p := pipeline.New(pipeline.Options{Seed: experiments.CloneSeed})
	diffs, err := pipeline.Map(ctx, p, experiments.Quick(), func(ctx context.Context, w *workloads.Workload) ([]string, error) {
		var diffs []string
		var ref vm.Result
		for i, pt := range gridPoints {
			prog, err := p.CompileClone(ctx, w, pt.target, pt.level)
			if err != nil {
				return nil, err
			}
			res, err := vm.New(prog).Run(vm.Config{})
			if err != nil {
				return nil, fmt.Errorf("%s clone on %s %v: %w", w.Name, pt.target.Name, pt.level, err)
			}
			if i == 0 {
				ref = res // x86v -O0
			} else if res.OutputHash != ref.OutputHash || res.Prints != ref.Prints {
				diffs = append(diffs, fmt.Sprintf("%s clone on %s %v: %d prints, hash %#x; x86v -O0: %d prints, hash %#x",
					w.Name, pt.target.Name, pt.level, res.Prints, res.OutputHash, ref.Prints, ref.OutputHash))
			}
		}
		return diffs, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		for _, msg := range d {
			t.Error(msg)
		}
	}

	// Synthesis calibrates on float arithmetic, and other architectures
	// may fuse multiply-adds into FMA instructions that round differently,
	// so the same seed can give other (equally valid) clone bytes there.
	if runtime.GOARCH != "amd64" {
		t.Logf("clone digests are recorded on amd64; not checked on %s", runtime.GOARCH)
		return
	}
	for _, w := range experiments.Quick() {
		cl, err := p.Synthesize(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write([]byte(cl.Source))
		if got := fmt.Sprintf("%016x", h.Sum64()); got != cloneSourceDigests[w.Name] {
			t.Errorf("%s clone source digest %s, want %s", w.Name, got, cloneSourceDigests[w.Name])
		}
		for _, clone := range []bool{false, true} {
			name, compile := w.Name, p.Compile
			if clone {
				name, compile = w.Name+" clone", p.CompileClone
			}
			for i, pt := range gridPoints {
				prog, err := compile(ctx, w, pt.target, pt.level)
				if err != nil {
					t.Fatal(err)
				}
				data, err := pipeline.EncodeProgram(prog)
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				h.Write(data)
				if got, want := fmt.Sprintf("%016x", h.Sum64()), compiledProgramDigests[name][i]; got != want {
					t.Errorf("%s on %s %v: compiled program digest %s, want %s", name, pt.target.Name, pt.level, got, want)
				}
			}
		}
	}
}

// TestCloneSourceRoundTrip compiles each quick-suite clone as synthesized
// and as a store read rebuilds it, by parsing and checking Clone.Source,
// on amd64v at -O0 to -O3, and requires identical programs: a warm
// pipeline compiles the reparsed clone, so the printer and parser must
// round-trip every generated AST (negative literals, for one).
func TestCloneSourceRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes the quick suite's clones")
	}
	ctx := context.Background()
	p := pipeline.New(pipeline.Options{Seed: experiments.CloneSeed})
	diffs, err := pipeline.Map(ctx, p, experiments.Quick(), func(ctx context.Context, w *workloads.Workload) ([]string, error) {
		cl, err := p.Synthesize(ctx, w)
		if err != nil {
			return nil, err
		}
		ast, err := hlc.Parse(cl.Source)
		if err != nil {
			return nil, err
		}
		reparsed, err := hlc.Check(ast)
		if err != nil {
			return nil, err
		}
		var diffs []string
		for _, level := range []compiler.OptLevel{compiler.O0, compiler.O1, compiler.O2, compiler.O3} {
			var enc [2][]byte
			for i, cp := range []*hlc.CheckedProgram{cl.Checked, reparsed} {
				prog, err := compiler.Compile(cp, isa.AMD64, level)
				if err != nil {
					return nil, err
				}
				if enc[i], err = pipeline.EncodeProgram(prog); err != nil {
					return nil, err
				}
			}
			if !bytes.Equal(enc[0], enc[1]) {
				diffs = append(diffs, fmt.Sprintf("%s clone at %v: the reparsed source compiles differently", w.Name, level))
			}
		}
		return diffs, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		for _, msg := range d {
			t.Error(msg)
		}
	}
}

// seedSourceDigests pins every quick-suite clone's HLC source at two more
// seeds, the same way cloneSourceDigests does at the experiments' seed. A
// seed changes the skeleton, so calibration takes another path of
// attempts and regenerations; the pins guard that path as well.
var seedSourceDigests = map[int64]map[string]string{
	1: {
		"adpcm/small1":       "4e2164cb775c1ee9",
		"basicmath/small":    "509d3af8509e25c4",
		"bitcount/small":     "f171893b21250a93",
		"crc32/small":        "19be04da7c21c3c2",
		"dijkstra/small":     "6d91a5e336642f72",
		"fft/small1":         "44eb2558a0debe61",
		"gsm/small1":         "3d95212fc583d3ac",
		"jpeg/large1":        "a02ab89bae8783b5",
		"patricia/small":     "a9130576e342b583",
		"qsort/large":        "e765f33146fe6f20",
		"sha/small":          "fc9f09e7f7485f27",
		"stringsearch/small": "13e0771e0e5b1954",
		"susan/small2":       "aa07c753373d2bd9",
	},
	2: {
		"adpcm/small1":       "f2fab4f5d1bbe81b",
		"basicmath/small":    "14e0b0c5ad458abf",
		"bitcount/small":     "55eecc7ed29a2569",
		"crc32/small":        "9ece6bda7afe20cb",
		"dijkstra/small":     "a4c5c05f2990a24c",
		"fft/small1":         "a1b3671cd62ce641",
		"gsm/small1":         "51a45cbd3eeaafdd",
		"jpeg/large1":        "2b5b5ee76edfbed5",
		"patricia/small":     "92c25e8ef6699518",
		"qsort/large":        "44e6ebd723d2900d",
		"sha/small":          "cafb34654e4ef593",
		"stringsearch/small": "876f3b9cc223c3ca",
		"susan/small2":       "80fe185d74a515e7",
	},
}

// TestCloneSourcesAtOtherSeeds checks every quick-suite clone's source at
// the seeds of seedSourceDigests.
func TestCloneSourcesAtOtherSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes the quick suite at two seeds")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("clone digests are recorded on amd64; not checked on %s", runtime.GOARCH)
	}
	ctx := context.Background()
	for seed, want := range seedSourceDigests {
		p := pipeline.New(pipeline.Options{Seed: seed})
		got, err := pipeline.Map(ctx, p, experiments.Quick(), func(ctx context.Context, w *workloads.Workload) (string, error) {
			cl, err := p.Synthesize(ctx, w)
			if err != nil {
				return "", err
			}
			h := fnv.New64a()
			h.Write([]byte(cl.Source))
			return fmt.Sprintf("%016x", h.Sum64()), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range experiments.Quick() {
			if got[i] != want[w.Name] {
				t.Errorf("seed %d: %s clone source digest %s, want %s", seed, w.Name, got[i], want[w.Name])
			}
		}
	}
}
