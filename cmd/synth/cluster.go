package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/store"
)

// This file is the CLI face of internal/cluster: `synth dispatch` is the
// coordinator, `synth work` is one worker, and `synth store-gc` maintains
// the shared store the cluster lives under. See docs/cluster.md for the
// lifecycle and failure modes.

// splitList parses a comma-separated flag value.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseLevels parses a comma-separated list of optimization level indices.
func parseLevels(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad optimization level %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// openQueue opens the job queue under a -store directory.
func openQueue(storeDir string) (*cluster.Queue, error) {
	if storeDir == "" {
		return nil, fmt.Errorf("missing -store (the cluster queue lives under the shared store)")
	}
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, err
	}
	return cluster.OpenQueue(st)
}

// dispatchFlags are the queue flags of every dispatching command
// (dispatch, explore -dispatch, generate -dispatch), with one meaning and
// one default everywhere.
type dispatchFlags struct {
	wait, force bool
	ttl, poll   time.Duration
}

// addDispatchFlags registers the shared dispatch flags on fs.
func addDispatchFlags(fs *flag.FlagSet, d *dispatchFlags) {
	fs.BoolVar(&d.wait, "wait", false, "block until every job is done, then print the report")
	fs.BoolVar(&d.force, "force", false, "re-enqueue jobs even when their artifacts are already stored")
	fs.DurationVar(&d.ttl, "lease-ttl", cluster.DefaultLeaseTTL, "lease expiry for reclaiming crashed workers' jobs (with -wait)")
	fs.DurationVar(&d.poll, "poll", cluster.DefaultPoll, "queue polling interval (with -wait)")
}

// dispatch is the one dispatch-and-wait path: open the -store queue, build
// the dispatching pipeline over its store, dispatch spec, and print the
// outcome as "synth <cmd>: N jobs (<shape>): ...". With -wait it then
// blocks until the queue drains, printing progress, and consolidates the
// results; every failed job is printed and fails the call, since a partial
// result set has no report to aggregate. The report is zero without -wait.
func (d *dispatchFlags) dispatch(ctx context.Context, c *commonFlags, cmd, shape string, spec cluster.Spec, stderr io.Writer) (*pipeline.Pipeline, cluster.Report, error) {
	var rep cluster.Report
	q, err := openQueue(c.storeDir)
	if err != nil {
		return nil, rep, err
	}
	p := c.pipelineWith(q.Store())
	out, err := cluster.Dispatch(ctx, q, p, spec, cluster.DispatchOptions{Force: d.force})
	if err != nil {
		return nil, rep, err
	}
	fmt.Fprintf(stderr, "synth %s: %d jobs (%s): %d enqueued, %d deduped from store, %d already done, %d already queued\n",
		cmd, out.Total, shape, out.Enqueued, out.Deduped, out.AlreadyDone, out.AlreadyQueued)
	if !d.wait {
		return p, rep, nil
	}
	last := cluster.Counts{Pending: -1}
	results, err := cluster.Wait(ctx, q, cluster.WaitOptions{
		TTL:  d.ttl,
		Poll: d.poll,
		Progress: func(cc cluster.Counts, total int) {
			if cc != last {
				fmt.Fprintf(stderr, "synth %s: %d/%d done, %d pending, %d leased\n",
					cmd, cc.Done, total, cc.Pending, cc.Leased)
				last = cc
			}
		},
	})
	if err != nil {
		return nil, rep, err
	}
	m, err := q.Manifest()
	if err != nil {
		return nil, rep, err
	}
	rep = cluster.BuildReport(m, results)
	for _, f := range rep.Failures {
		fmt.Fprintf(stderr, "synth %s: job FAILED: %s\n", cmd, f)
	}
	if rep.Failed > 0 {
		return nil, rep, fmt.Errorf("%d of %d jobs failed", rep.Failed, rep.Total)
	}
	return p, rep, nil
}

// cmdDispatch enumerates a suite's jobs, dedups them against the store,
// enqueues the rest, and optionally waits for the cluster to drain.
func cmdDispatch(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("synth dispatch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c commonFlags
	addCommon(fs, &c)
	var df dispatchFlags
	addDispatchFlags(fs, &df)
	suite := fs.String("suite", "quick", "workload suite to dispatch: tiny, quick, or full")
	isas := fs.String("isas", "", "comma-separated target ISA grid (default: the profiling ISA, "+profile.Target.Name+")")
	levels := fs.String("levels", "", fmt.Sprintf("comma-separated optimization level grid (default: the profiling level, %d)", profile.Level))
	if err := fs.Parse(args); err != nil {
		return err
	}
	ws, err := experiments.Suite(*suite)
	if err != nil {
		return err
	}
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	isaGrid := splitList(*isas)
	if len(isaGrid) == 0 {
		isaGrid = []string{profile.Target.Name}
	}
	levelGrid, err := parseLevels(*levels)
	if err != nil {
		return err
	}
	if len(levelGrid) == 0 {
		levelGrid = []int{int(profile.Level)}
	}
	spec := cluster.Spec{
		Suite:     *suite,
		Workloads: names,
		ISAs:      isaGrid,
		Levels:    levelGrid,
		Seed:      c.seed,
	}
	shape := fmt.Sprintf("%s suite, %d ISAs × %d levels", *suite, len(isaGrid), len(levelGrid))
	_, rep, err := df.dispatch(ctx, &c, "dispatch", shape, spec, stderr)
	if err != nil || !df.wait {
		return err
	}
	rep.Print(stdout)
	return nil
}

// cmdWork runs one cluster worker: lease a job, execute it through a
// pipeline rebuilt from the dispatch manifest, ack the result, repeat
// until the queue converges. The queue and store come from a shared -store
// directory, or — for nodes with no shared filesystem — from a `synth
// serve` node's remote store via -remote.
func cmdWork(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("synth work", flag.ContinueOnError)
	fs.SetOutput(stderr)
	storeDir := fs.String("store", "", "shared artifact store directory holding the job queue")
	remote := fs.String("remote", "", "base URL of a synth serve node whose store to work against (e.g. http://host:8091)")
	token := fs.String("token", "", "bearer token for the -remote node (must match its serve -token)")
	workers := fs.Int("workers", 0, "in-process worker pool size (0 = GOMAXPROCS)")
	id := fs.String("id", "", "worker ID used in leases and results (default: worker-<pid>)")
	ttl := fs.Duration("lease-ttl", cluster.DefaultLeaseTTL, "lease expiry: heartbeat budget for this worker, reclaim horizon for others")
	poll := fs.Duration("poll", cluster.DefaultPoll, "idle polling interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		*id = fmt.Sprintf("worker-%d", os.Getpid())
	}
	var (
		q   *cluster.Queue
		rem *store.Remote
		err error
	)
	switch {
	case *remote != "" && *storeDir != "":
		return fmt.Errorf("-store and -remote are mutually exclusive")
	case *remote != "":
		if rem, err = store.OpenRemote(*remote, *token); err != nil {
			return err
		}
		if q, err = cluster.OpenQueue(rem); err != nil {
			return err
		}
		// Every store round-trip is a wire request here; summarize the
		// transport when the worker exits so flaky links are visible.
		defer func() {
			reqs, errs := rem.Stats().Total()
			fmt.Fprintf(stderr, "synth work %s: remote store: %d round-trips, %d transport errors\n", *id, reqs, errs)
		}()
	default:
		if q, err = openQueue(*storeDir); err != nil {
			return err
		}
	}
	m, err := q.Manifest()
	if err != nil {
		return err
	}
	if m == nil {
		return fmt.Errorf("nothing dispatched yet (run \"synth dispatch\" first)")
	}
	p := pipeline.New(pipeline.Options{Workers: *workers, Seed: m.Spec.Seed, Store: q.Store()})

	w := &cluster.Worker{
		Queue:    q,
		Pipe:     p,
		ID:       *id,
		Dispatch: m.Spec.Digest(),
		TTL:      *ttl,
		Poll:     *poll,
		OnJob: func(r cluster.Result) {
			status := "ok"
			if r.Err != "" {
				status = "FAILED: " + r.Err
			}
			fmt.Fprintf(stderr, "synth work %s: %s (%d cells) in %dms: %s\n",
				*id, r.Job.Workload, r.Job.Cells(), r.Millis, status)
		},
	}
	// Interruption and errors exit nonzero with an honest summary — the
	// queue may not be drained, and scripts trust the exit code.
	err = w.Run(ctx)
	state := "drained"
	if err != nil {
		state = fmt.Sprintf("stopped (%v)", err)
	}
	sum := w.Metrics.Snapshot()
	fmt.Fprintf(stderr, "synth work %s: %s, jobs=%d failed=%d\n", *id, state, sum.JobsOK+sum.JobsFailed, sum.JobsFailed)
	printStats(stderr, p)
	if err == nil && sum.JobsFailed > 0 {
		err = fmt.Errorf("%d jobs failed", sum.JobsFailed)
	}
	return err
}

// cmdStoreGC prunes old entries from a persistent artifact store.
func cmdStoreGC(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("synth store-gc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	storeDir := fs.String("store", "", "persistent artifact store directory to prune")
	maxAge := fs.Duration("max-age", 0, "evict entries older than this (0 = no age limit)")
	maxBytes := fs.Int64("max-bytes", 0, "evict oldest entries until the store fits this many bytes (0 = no size limit)")
	wipMaxAge := fs.Duration("wip-max-age", 0, "evict in-progress markers whose heartbeat is older than this (0 = leave markers alone)")
	dryRun := fs.Bool("dry-run", false, "report what would be evicted without removing anything")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("missing -store")
	}
	st, err := store.Open(*storeDir)
	if err != nil {
		return err
	}
	stats, err := st.Prune(store.PruneOptions{MaxAge: *maxAge, MaxBytes: *maxBytes, WIPMaxAge: *wipMaxAge, DryRun: *dryRun})
	if err != nil {
		return err
	}
	mode := ""
	if *dryRun {
		mode = " (dry run)"
	}
	fmt.Fprintf(stdout, "store-gc%s: scanned %d entries (%d bytes), evicted %d (%d bytes), %d entries (%d bytes) remain\n",
		mode, stats.Scanned, stats.ScannedBytes, stats.Removed, stats.RemovedBytes,
		stats.Scanned-stats.Removed, stats.ScannedBytes-stats.RemovedBytes)
	if *wipMaxAge > 0 {
		fmt.Fprintf(stdout, "store-gc%s: scanned %d in-progress markers, evicted %d stale\n",
			mode, stats.WIPScanned, stats.WIPRemoved)
	}
	return nil
}

// clusterStatus summarizes a queue for the serve endpoint and diagnostics.
type clusterStatus struct {
	Suite   string         `json:"suite"`
	Total   int            `json:"total"`
	Pending int            `json:"pending"`
	Leased  int            `json:"leased"`
	Done    int            `json:"done"`
	Failed  int            `json:"failed"`
	Deduped int            `json:"deduped"`
	Workers map[string]int `json:"workers"` // active leases per worker
	// Node is the serving process's embedded worker pool, when one is
	// running: pool size, autoscaler bounds, recent scaling decisions, and
	// the pool's job-lifecycle counters (node.jobs).
	Node *cluster.SupervisorStatus `json:"node,omitempty"`
}

// buildClusterStatus reads a queue's current shape. It returns nil (no
// error) when nothing has been dispatched.
func buildClusterStatus(q *cluster.Queue) (*clusterStatus, error) {
	m, err := q.Manifest()
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, nil
	}
	counts, err := q.Counts()
	if err != nil {
		return nil, err
	}
	workers, err := q.Workers()
	if err != nil {
		return nil, err
	}
	results, err := q.Results()
	if err != nil {
		return nil, err
	}
	rep := cluster.BuildReport(m, results)
	return &clusterStatus{
		Suite:   m.Spec.Suite,
		Total:   m.Total,
		Pending: counts.Pending,
		Leased:  counts.Leased,
		Done:    counts.Done,
		Failed:  rep.Failed,
		Deduped: rep.Deduped,
		Workers: workers,
	}, nil
}
