// Command ledger is the repository's performance benchmark: four workloads
// that together exercise every layer of the clone-and-explore flow, each
// measured end to end and, in a separate traced run, layer by layer. See
// README.md for the workloads, the metrics and how to compare two commits.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash bench/ledger/run.sh [-workload NAME[,NAME...]] [-seed N] [-seconds S] [-trace 0|1]
//	bash bench/ledger/run.sh -compare A.jsonl B.jsonl
//
// Every workload runs in its own child process, so heap size and peak
// resident memory belong to that workload alone. The last line of standard
// output is the last workload's result as one JSON object; the exit code is
// non-zero when any run fails or any correctness check does.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ledger: %v\n", err)
		os.Exit(1)
	}
}

// record is one run as the -out ledger file keeps it, one JSON object per
// line; -compare reads two such files.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	report
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "workloads to run: all, or a comma-separated list of "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", experiments.CloneSeed, "clone-synthesis seed")
	seconds := fs.Float64("seconds", 10, "measured time per workload; passes repeat until it is spent")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory for the Chrome traces of a traced run")
	workDir := fs.String("work-dir", ".bench_build/ledger-work", "scratch directory for the runs' stores")
	out := fs.String("out", "", "append each run's record to this JSON-lines ledger file")
	compare := fs.Bool("compare", false, "compare two ledger files given as arguments: A (parent) and B (change)")
	benchFile := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metric bounds, for -compare")
	child := fs.Bool("child", false, "run one workload in this process (used by the parent)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two ledger files")
		}
		return compareFiles(*benchFile, fs.Arg(0), fs.Arg(1), stdout)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1,
		workDir: *workDir, traceDir: *traceDir}

	if *child {
		cfg.workload = *names
		rep, err := run(ctx, cfg, stderr)
		if jerr := json.NewEncoder(stdout).Encode(rep); jerr != nil {
			return jerr
		}
		return err
	}

	list := workloadNames
	if *names != "all" {
		list = strings.Split(*names, ",")
	}
	for _, name := range list {
		if _, err := newWorkload(name, nil); err != nil {
			return err
		}
	}
	failed := false
	for _, name := range list {
		cfg.workload = name
		rep, err := runChild(ctx, cfg, stderr)
		if err != nil {
			return err
		}
		printReport(stdout, name, rep)
		if *out != "" {
			if err := appendRecord(*out, record{Workload: name, Seed: cfg.seed, Trace: cfg.trace, report: rep}); err != nil {
				return err
			}
		}
		line, err := json.Marshal(rep.Result)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !rep.Result.Correct || rep.Error != "" {
			failed = true
		}
	}
	if failed {
		return errors.New("a run failed its correctness checks")
	}
	return nil
}

// runChild re-executes this binary on one workload, waits for it, and adds
// the child's peak resident memory to its end-to-end metrics. A child that
// exits non-zero with a report still returns the report; the caller prints
// it and fails the run.
func runChild(ctx context.Context, cfg runConfig, stderr io.Writer) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", cfg.workload,
		"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", map[bool]string{false: "0", true: "1"}[cfg.trace],
		"-trace-dir", cfg.traceDir, "-work-dir", cfg.workDir)
	// On cancellation the child gets an interrupt, so it stops its passes
	// and removes its scratch directory, rather than a kill.
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 30 * time.Second
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	var rep report
	if err := json.Unmarshal(lastLine(out.Bytes()), &rep); err != nil {
		if runErr != nil {
			return report{}, fmt.Errorf("%s: %w", cfg.workload, runErr)
		}
		return report{}, fmt.Errorf("%s: unreadable child report: %w", cfg.workload, err)
	}
	if runErr != nil && rep.Error == "" {
		rep.Error = runErr.Error()
	}
	if !cfg.trace && rep.Result.Correct {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return report{}, errors.New("no resource usage for the child process")
		}
		// Linux reports ru_maxrss in kilobytes.
		rep.Result.Metrics["max_rss_mb"] = metricValue{Value: float64(ru.Maxrss) / 1024, Unit: "MB"}
	}
	return rep, nil
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// printReport prints a run's metrics one per line, then its outputs and
// sample counts.
func printReport(w io.Writer, name string, rep report) {
	fmt.Fprintf(w, "== %s: correct=%t attempted=%d failed=%d\n",
		name, rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed)
	if rep.Error != "" {
		fmt.Fprintf(w, "   error: %s\n", rep.Error)
	}
	for _, k := range sortedKeys(rep.Result.Metrics) {
		m := rep.Result.Metrics[k]
		fmt.Fprintf(w, "   %-30s %16.6g %s\n", k, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(rep.Extra) {
		fmt.Fprintf(w, "   %-30s %16.6g\n", k, rep.Extra[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendRecord appends one record to a JSON-lines ledger file.
func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords loads a JSON-lines ledger file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}
