package hlc_test

import (
	"testing"

	"repro/internal/hlc"
	"repro/internal/workloads"
)

// FuzzHLCParse drives the HLC front end with arbitrary source, seeded with
// every registered workload. Parse must reject or accept without
// panicking; an accepted program must print to source that reparses, and
// whose print is byte-identical (Print is a fixed point after one round),
// and Check must return rather than panic on it.
func FuzzHLCParse(f *testing.F) {
	for _, w := range workloads.All() {
		f.Add(w.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := hlc.Parse(src)
		if err != nil {
			return
		}
		printed := hlc.Print(prog)
		reparsed, err := hlc.Parse(printed)
		if err != nil {
			t.Fatalf("printed program does not reparse: %v\n--- printed ---\n%s", err, printed)
		}
		if again := hlc.Print(reparsed); again != printed {
			t.Fatalf("print is not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", printed, again)
		}
		hlc.Check(prog) // only a panic fails the target; errors are fine
	})
}
