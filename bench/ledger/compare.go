package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchDef is the part of BENCHMARK.json the comparison reads: the metric
// tables, with a bound on every end-to-end metric.
type benchDef struct {
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchDef(path string) (*benchDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// exactExtras are the deterministic outputs two runs of one seed must
// reproduce exactly: the paper's accuracy numbers and the sweep's.
var exactExtras = []string{"fig10_cpi_corr", "fig11_err_avg", "fig11_err_max", "sweep_cpi_corr"}

// verdict classifies B against A for one metric whose values may worsen by
// bound (a share of A's median) before counting as worse. When either
// side's interquartile spread is wider than the bound the pair is
// unresolved, unless every run of B reads better than every run of A.
func verdict(a, b []float64, bound float64, lowerBetter bool) string {
	ma, mb := median(a), median(b)
	worse := mb - ma // > 0: B is worse
	if !lowerBetter {
		worse = -worse
	}
	if ma != 0 {
		worse /= math.Abs(ma)
	}
	if spread(a) > bound || spread(b) > bound {
		if allBetter(a, b, lowerBetter) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "worse"
	case -worse > bound:
		return "better"
	}
	return "same"
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, lowerBetter bool) bool {
	sa, sb := sorted(a), sorted(b)
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	if lowerBetter {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

// compareFiles prints, for every workload in both ledgers, one row per
// end-to-end metric with its verdict under BENCHMARK.json's bounds, then
// checks that every count and accuracy output matches exactly for each seed
// both ledgers ran. It fails when any pair is worse or unresolved, or any
// exact value differs.
func compareFiles(benchPath, pathA, pathB string, w io.Writer) error {
	def, err := loadBenchDef(benchPath)
	if err != nil {
		return err
	}
	recsA, err := readRecords(pathA)
	if err != nil {
		return err
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		return err
	}
	bad := compareRecords(def, recsA, recsB, w)
	if bad > 0 {
		return fmt.Errorf("%d comparisons worse, unresolved or differing", bad)
	}
	return nil
}

// compareRecords writes the comparison table and returns how many rows
// failed.
func compareRecords(def *benchDef, recsA, recsB []record, w io.Writer) int {
	bad := 0
	fmt.Fprintf(w, "%-13s %-14s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "A spread", "B spread", "bound", "verdict")
	for _, name := range workloadNames {
		for _, m := range def.EndToEnd {
			a, b := values(recsA, name, m.Name), values(recsB, name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict(a, b, m.Bound, m.Better == "lower")
			if v == "worse" || v == "unresolved" {
				bad++
			}
			fmt.Fprintf(w, "%-13s %-14s %12.6g %12.6g %7.1f%% %7.1f%% %5.0f%%  %s\n",
				name, m.Name, median(a), median(b), spread(a)*100, spread(b)*100, m.Bound*100, v)
		}
	}
	var exact []string
	for _, m := range def.PerLayer {
		if m.Unit == "count" {
			exact = append(exact, m.Name)
		}
	}
	exact = append(exact, exactExtras...)
	checked := 0
	for _, ra := range recsA {
		for _, rb := range recsB {
			if ra.Workload != rb.Workload || ra.Seed != rb.Seed || ra.Trace != rb.Trace {
				continue
			}
			for _, k := range exact {
				va, okA := exactValue(ra, k)
				vb, okB := exactValue(rb, k)
				if !okA || !okB {
					continue
				}
				checked++
				if va != vb {
					bad++
					fmt.Fprintf(w, "%-13s %-30s seed %d: %v vs %v  differs\n", ra.Workload, k, ra.Seed, va, vb)
				}
			}
		}
	}
	fmt.Fprintf(w, "exact values compared: %d\n", checked)
	return bad
}

// values collects one end-to-end metric of one workload across a ledger's
// untraced runs.
func values(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// exactValue looks a value up among a record's metrics, then its extras.
func exactValue(r record, key string) (float64, bool) {
	if m, ok := r.Result.Metrics[key]; ok {
		return m.Value, true
	}
	v, ok := r.Extra[key]
	return v, ok
}
