// Command cohmeleon regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	cohmeleon list
//	cohmeleon run [-profile quick|full|tiny] [-seed N] [-workers N]
//	              [-scenarios N] [-qtable-save FILE] [-qtable-load FILE]
//	              [-learner NAME] [-schedule NAME] [-protocol NAME]
//	              [-finegrain] [-fidelity MODE] [-cache-dir DIR]
//	              [-resume] [-cache-verify]
//	              [-shared] [-worker-id NAME] [-lease-ttl D]
//	              [-cpuprofile FILE] [-memprofile FILE]
//	              [-out FILE] <id>... | all
//	cohmeleon serve -cache-dir DIR [-addr HOST:PORT] [-queue N] [-jobs N]
//	              [-cells N] [-workers N] [-cell-retries N]
//	              [-job-timeout D]
//
// Experiment IDs: table4, fig2, fig3, fig5, fig6, fig7, fig8, fig9,
// headline, overhead, ablation, sweep, learners.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cohmeleon/internal/experiment"
	"cohmeleon/internal/learn"
	"cohmeleon/internal/soc/protocol"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cohmeleon:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	switch args[0] {
	case "list":
		for _, e := range experiment.List() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return nil
	case "run":
		return runExperiments(args[1:])
	case "serve":
		return serveExperiments(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func runExperiments(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	profile := fs.String("profile", "quick", "experiment scale: quick, full or tiny")
	seed := fs.Uint64("seed", 0, "override the experiment seed (0 keeps the default)")
	workers := fs.Int("workers", 0, "concurrent trials (0 = GOMAXPROCS, 1 = sequential; reports are identical either way)")
	scenarios := fs.Int("scenarios", 0, "sweep scenario count (0 keeps the profile default)")
	qtableSave := fs.String("qtable-save", "", "sweep: write the merged trained Q-table to this file")
	qtableLoad := fs.String("qtable-load", "", "sweep: evaluate this Q-table frozen on the sampled scenarios")
	learner := fs.String("learner", "", "agent algorithm for training experiments (omit for the paper's \"q\")")
	schedule := fs.String("schedule", "", "agent ε/α schedule for training experiments (omit for the paper's \"linear\")")
	proto := fs.String("protocol", "", "coherence-protocol stack for every simulated SoC (omit for the default \"mesi\")")
	fineGrain := fs.Bool("finegrain", false, "widen the agent's action space with per-region (hot, cold) mode splits")
	fidelity := fs.String("fidelity", "", "sweep/learners cell fidelity: full (default; cycle-accurate), screening (calibrated analytical model), auto (screen, escalate ambiguous cells)")
	cacheDir := fs.String("cache-dir", "", "persist content-keyed static-policy run results under this directory (reports are byte-identical with or without it)")
	resume := fs.Bool("resume", false, "sweep/learners: replay cells checkpointed under -cache-dir by an interrupted identical run")
	shared := fs.Bool("shared", false, "sweep/learners: shard grid cells with other -shared processes on the same -cache-dir via lease files")
	workerID := fs.String("worker-id", "", "shared mode: this worker's name in lease files (default <hostname>-<pid>)")
	leaseTTL := fs.Duration("lease-ttl", 0, "shared mode: reclaim a peer's cell after its lease heartbeat stalls this long (default 10s)")
	cacheVerify := fs.Bool("cache-verify", false, "fsck -cache-dir before running: re-hash every entry, quarantine corrupt ones")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file on clean exit (forces -workers 1)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on clean exit (forces -workers 1)")
	outPath := fs.String("out", "", "also append rendered reports to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Learner-stack names resolve against the learn registry before
	// anything runs; the registry's error already lists every valid
	// option, like unknown experiment IDs do.
	if _, err := learn.NewAlgorithm(*learner); err != nil {
		return fmt.Errorf("run: -learner: %w", err)
	}
	if _, err := learn.NewSchedule(*schedule, learn.ScheduleParams{Epsilon0: 0.5, Alpha0: 0.25, DecayIterations: 1}); err != nil {
		return fmt.Errorf("run: -schedule: %w", err)
	}
	// Protocol names resolve against the protocol registry the same way;
	// the error lists every registered stack.
	if _, err := protocol.Lookup(*proto); err != nil {
		return fmt.Errorf("run: -protocol: %w", err)
	}
	// Flag defaults mean "use the profile's value"; an explicitly passed
	// zero or negative is a user error, not a request for the default,
	// and must fail loudly rather than being silently replaced.
	var flagErr error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case f.Name == "workers" && *workers <= 0:
			flagErr = fmt.Errorf("run: -workers %d invalid: need ≥ 1 (omit the flag for GOMAXPROCS)", *workers)
		case f.Name == "scenarios" && *scenarios <= 0:
			flagErr = fmt.Errorf("run: -scenarios %d invalid: need ≥ 1 (omit the flag for the profile default)", *scenarios)
		}
	})
	if flagErr != nil {
		return flagErr
	}
	// Profiling runs must be sequential: a multi-worker profile
	// interleaves independent trials and attributes their costs to one
	// confounded timeline. An explicit -workers > 1 is rejected rather
	// than silently overridden; omitting -workers profiles sequentially.
	profiling := *cpuprofile != "" || *memprofile != ""
	if profiling {
		if *workers > 1 {
			return fmt.Errorf("run: -cpuprofile/-memprofile need -workers 1 (a %d-worker profile interleaves unrelated trials); omit -workers to profile sequentially", *workers)
		}
		*workers = 1
	}
	// Crash-safety flags depend on a cache directory; reject the
	// combination upfront rather than running without the persistence the
	// user asked for.
	if *resume && *cacheDir == "" {
		return fmt.Errorf("run: -resume needs -cache-dir (checkpoints live under it)")
	}
	if *cacheVerify && *cacheDir == "" {
		return fmt.Errorf("run: -cache-verify needs -cache-dir")
	}
	if *shared && *cacheDir == "" {
		return fmt.Errorf("run: -shared needs -cache-dir (workers coordinate through lease files under it)")
	}
	// Lease tuning without shared mode would be silently inert.
	if !*shared {
		switch {
		case *workerID != "":
			return fmt.Errorf("run: -worker-id only applies with -shared")
		case *leaseTTL != 0:
			return fmt.Errorf("run: -lease-ttl only applies with -shared")
		}
	}
	if *leaseTTL < 0 {
		return fmt.Errorf("run: -lease-ttl %v invalid: need > 0 (omit the flag for the 10s default)", *leaseTTL)
	}
	ids := fs.Args()
	if len(ids) == 0 {
		// A bare fsck run is a legitimate zero-experiment invocation.
		if *cacheVerify {
			if err := experiment.SetRunCacheDir(*cacheDir); err != nil {
				return err
			}
			return verifyCache(*cacheDir)
		}
		return fmt.Errorf("run: no experiment IDs (valid: %s, or 'all')", strings.Join(experiment.IDs(), ", "))
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiment.IDs()
	}
	// Resolve every ID before running anything: a typo at the end of the
	// list must not surface only after the preceding experiments ran.
	entries := make([]experiment.Entry, len(ids))
	hasSweep, hasGrid, trainsAgent, checkpoints := false, false, false, false
	for i, id := range ids {
		entry, err := experiment.Lookup(id)
		if err != nil {
			return err
		}
		entries[i] = entry
		hasSweep = hasSweep || id == "sweep"
		hasGrid = hasGrid || id == "sweep" || id == "learners"
		trainsAgent = trainsAgent || trainingExperiments[id]
		checkpoints = checkpoints || checkpointedExperiments[id]
	}
	// -fidelity selects the sweep/learners evaluation path; on any other
	// experiment it would be silently inert, so it fails loudly like the
	// other ineffective flags.
	if *fidelity != "" && !hasGrid {
		return fmt.Errorf("run: -fidelity only applies to the sweep and learners experiments (ids: %s)", strings.Join(ids, ", "))
	}
	// -resume on a run with no checkpointed experiment would be a silent
	// no-op; fail loudly like the other ineffective-flag cases.
	if *resume && !checkpoints {
		return fmt.Errorf("run: -resume only applies to checkpointed experiments (%s); ids: %s",
			strings.Join(checkpointedIDs(), ", "), strings.Join(ids, ", "))
	}
	// -shared shards the checkpointed grids; on anything else it would
	// silently run single-process.
	if *shared && !checkpoints {
		return fmt.Errorf("run: -shared only applies to checkpointed experiments (%s); ids: %s",
			strings.Join(checkpointedIDs(), ", "), strings.Join(ids, ", "))
	}
	// Sweep-only flags on a sweep-less run would be silently ignored —
	// in the save case leaving the user without the table they asked
	// for — so they fail loudly like every other ineffective flag.
	if !hasSweep {
		switch {
		case *qtableSave != "":
			return fmt.Errorf("run: -qtable-save only applies to the sweep experiment (ids: %s)", strings.Join(ids, ", "))
		case *qtableLoad != "":
			return fmt.Errorf("run: -qtable-load only applies to the sweep experiment (ids: %s)", strings.Join(ids, ", "))
		case *scenarios > 0:
			return fmt.Errorf("run: -scenarios only applies to the sweep experiment (ids: %s)", strings.Join(ids, ", "))
		}
	}
	// A learner-stack override on experiments that never train an agent
	// would be silently ignored; fail loudly like the sweep-only flags.
	if !trainsAgent && (*learner != "" || *schedule != "") {
		return fmt.Errorf("run: -learner/-schedule only apply to experiments that train an agent (%s); ids: %s",
			strings.Join(trainingIDs(), ", "), strings.Join(ids, ", "))
	}
	// -finegrain widens the trained agent's action space; on a run that
	// never trains an agent it would be silently inert.
	if !trainsAgent && *fineGrain {
		return fmt.Errorf("run: -finegrain only applies to experiments that train an agent (%s); ids: %s",
			strings.Join(trainingIDs(), ", "), strings.Join(ids, ", "))
	}

	var opt experiment.Options
	switch *profile {
	case "quick":
		opt = experiment.Quick()
	case "full":
		opt = experiment.Default()
	case "tiny":
		opt = experiment.Tiny()
	default:
		return fmt.Errorf("run: unknown profile %q", *profile)
	}
	if *seed != 0 {
		opt.Seed = *seed
	}
	if *workers > 0 {
		opt.Workers = *workers
	}
	if *scenarios > 0 {
		opt.SweepScenarios = *scenarios
	}
	opt.QTableSave = *qtableSave
	opt.QTableLoad = *qtableLoad
	opt.Learner = *learner
	opt.Schedule = *schedule
	opt.Protocol = *proto
	opt.FineGrain = *fineGrain
	opt.Fidelity = *fidelity
	opt.Resume = *resume
	opt.Shared = *shared
	opt.WorkerID = *workerID
	opt.LeaseTTL = *leaseTTL
	if err := opt.Validate(); err != nil {
		return err
	}
	if err := experiment.SetRunCacheDir(*cacheDir); err != nil {
		return err
	}
	if *cacheVerify {
		if err := verifyCache(*cacheDir); err != nil {
			return err
		}
	}

	// First SIGINT/SIGTERM cancels the experiment context: dispatch stops,
	// in-flight app runs complete, checkpoints and the run store stay
	// sound, and the process exits through the normal error path with a
	// resume hint. A second signal exits hard for when graceful isn't
	// happening fast enough.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := watchSignals(ctx, func(sig os.Signal) {
		fmt.Fprintf(os.Stderr, "cohmeleon: %v: finishing in-flight runs, checkpointing (again to exit now)\n", sig)
		cancel()
	})
	defer stop()
	opt.Ctx = ctx
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("run: -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("run: -cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.OpenFile(*outPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	prev := experiment.Snapshot()
	for _, entry := range entries {
		fmt.Fprintf(out, "### %s — %s (profile=%s, seed=%d)\n\n", entry.ID, entry.Title, *profile, opt.Seed)
		start := time.Now()
		rep, err := entry.Run(opt)
		if err != nil {
			if errors.Is(err, context.Canceled) && *cacheDir != "" && checkpointedExperiments[entry.ID] {
				fmt.Fprintf(os.Stderr, "cohmeleon: %s: interrupted; completed cells are checkpointed — rerun with -resume and the same flags to continue\n", entry.ID)
			}
			return fmt.Errorf("%s: %w", entry.ID, err)
		}
		fmt.Fprintln(out, rep.Render())
		fmt.Fprintf(out, "(%s completed in %s)\n\n", entry.ID, time.Since(start).Round(time.Millisecond))
		// Duplicate-run elimination and checkpoint traffic are reported on
		// stderr so the rendered artifact stays byte-identical whether the
		// cache is cold, warm, resumed, or disabled.
		cur := experiment.Snapshot()
		if rc, p := cur.RunCache, prev.RunCache; rc != p {
			fmt.Fprintf(os.Stderr, "cohmeleon: %s: run cache: %d memo hits, %d disk hits, %d simulated\n",
				entry.ID, rc.Hits-p.Hits, rc.DiskHits-p.DiskHits, rc.Misses-p.Misses)
		}
		if ck, p := cur.Checkpoint, prev.Checkpoint; ck != p {
			fmt.Fprintf(os.Stderr, "cohmeleon: %s: checkpoints: %d cells replayed, %d cells saved\n",
				entry.ID, ck.Replayed-p.Replayed, ck.Saved-p.Saved)
		}
		if ls, p := cur.Lease, prev.Lease; ls != p {
			fmt.Fprintf(os.Stderr, "cohmeleon: %s: leases: %d acquired, %d renewed, %d contended, %d expired, %d reclaimed, %d lost, %d fallbacks\n",
				entry.ID, ls.Acquired-p.Acquired, ls.Renewed-p.Renewed,
				ls.Contended-p.Contended, ls.Expired-p.Expired,
				ls.Reclaimed-p.Reclaimed, ls.Lost-p.Lost, ls.Fallbacks-p.Fallbacks)
		}
		prev = cur
	}
	// Degraded-store traffic (counted and warned once in internal/store) gets
	// a final tally so a run that limped through write failures says so.
	if st := experiment.Snapshot().RunCache; st.WriteFailures+st.ReadFailures+st.Quarantined > 0 {
		fmt.Fprintf(os.Stderr, "cohmeleon: run store degraded: %d write failures, %d read failures, %d quarantined\n",
			st.WriteFailures, st.ReadFailures, st.Quarantined)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("run: -memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("run: -memprofile: %w", err)
		}
	}
	return nil
}

// verifyCache fscks the run store, already opened over dir: every run
// entry, cost model, checkpoint cell and lease is re-read and
// re-hashed, and failures are quarantined. A pass that had to
// quarantine is an error — the store healed, but the user asked to
// know.
func verifyCache(dir string) error {
	res, err := experiment.VerifyRunCache(dir)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "cohmeleon: cache-verify:", res)
	if !res.Clean() {
		return fmt.Errorf("cache-verify: %d corrupt entries quarantined (renamed *.corrupt; they will be recomputed), %d corrupt but not quarantined (still in place)", res.Quarantined, res.Failed)
	}
	return nil
}

// checkpointedExperiments lists the experiments that persist per-cell
// checkpoints under -cache-dir and therefore support -resume.
var checkpointedExperiments = map[string]bool{
	"sweep": true, "learners": true,
}

// checkpointedIDs returns the checkpointed experiments in registry order.
func checkpointedIDs() []string {
	var out []string
	for _, id := range experiment.IDs() {
		if checkpointedExperiments[id] {
			out = append(out, id)
		}
	}
	return out
}

// trainingExperiments lists the experiments whose Cohmeleon agent is
// built from the options' learner stack: -learner/-schedule change
// their behavior and are rejected elsewhere. (The ablation deliberately
// pins the paper's default stack — its variants are defined relative to
// it — and the overhead sweep charges a stack-independent constant.)
var trainingExperiments = map[string]bool{
	"fig5": true, "fig6": true, "fig7": true, "fig8": true, "fig9": true,
	"headline": true, "sweep": true, "learners": true,
}

// trainingIDs returns the training experiments sorted like the registry.
func trainingIDs() []string {
	var out []string
	for _, id := range experiment.IDs() {
		if trainingExperiments[id] {
			out = append(out, id)
		}
	}
	return out
}

func usage() {
	fmt.Fprint(os.Stderr, `cohmeleon — reproduce the MICRO 2021 Cohmeleon evaluation

commands:
  list                      list the reproducible tables and figures
  run [flags] <id>...|all   regenerate artifacts
  serve [flags]             HTTP job server for sweep/learners runs

run flags:
  -profile quick|full|tiny  protocol scale (default quick)
  -workers N                concurrent trials (omit for GOMAXPROCS, 1 = sequential)
  -seed N                   override the experiment seed
  -scenarios N              sweep scenario count (omit for the profile default)
  -qtable-save FILE         sweep: save the merged trained Q-table
  -qtable-load FILE         sweep: evaluate a saved Q-table on fresh scenarios
  -learner NAME             agent algorithm: q, double-q, ucb1, boltzmann
  -schedule NAME            agent ε/α schedule: linear, exp, const
  -protocol NAME            coherence-protocol stack: mesi, eci (default mesi)
  -finegrain                let the agent split hot/cold buffer regions
                            across two coherence modes per invocation
  -fidelity MODE            sweep/learners cell fidelity: full (default,
                            cycle-accurate), screening (every cell estimated by
                            the calibrated analytical cost model; reports carry
                            the model's held-out error bounds), auto (screen,
                            then re-simulate only cells whose estimates are too
                            close to call at the model's demonstrated accuracy)
  -cache-dir DIR            persist static-policy run results (content-keyed);
                            repeated regeneration skips those simulations, and
                            reports stay byte-identical either way
  -resume                   sweep/learners: replay cells checkpointed by an
                            interrupted identical run (needs -cache-dir); the
                            resumed report is byte-identical to an
                            uninterrupted one
  -cache-verify             fsck -cache-dir first: re-hash every entry,
                            checkpoint cell, and lease file, quarantine corrupt
                            ones as *.corrupt, and sweep orphaned temp files
                            (usable with no experiment IDs)
  -shared                   sweep/learners: shard grid cells with any number of
                            other -shared processes pointed at the same
                            -cache-dir, coordinated via lease files; every
                            worker that finishes renders the full report,
                            byte-identical to a single-process run
  -worker-id NAME           shared mode: name written into this worker's
                            leases (default <hostname>-<pid>)
  -lease-ttl D              shared mode: reclaim a dead peer's cell after its
                            lease heartbeat stalls this long, e.g. 30s
                            (default 10s)
  -cpuprofile FILE          write a pprof CPU profile on clean exit
  -memprofile FILE          write a pprof heap profile on clean exit
                            (profiling forces -workers 1; explicit -workers > 1
                            is rejected — a parallel profile confounds trials)
  -out FILE                 append rendered reports to FILE

Q-table transfer workflow (train on A, test on disjoint B):
  cohmeleon run -seed 1 -qtable-save table.gob sweep
  cohmeleon run -seed 2 -qtable-load table.gob sweep

Learner comparison (algorithm × schedule grid over random scenarios):
  cohmeleon run learners
  cohmeleon run -learner double-q -schedule exp fig9

Interrupted runs (Ctrl-C once = graceful: in-flight runs finish and
checkpoint; twice = exit now):
  cohmeleon run -cache-dir cache sweep         # interrupted at cell k
  cohmeleon run -cache-dir cache -resume sweep # replays cells, identical report

Distributed sweeps (N processes, one store; see README for the lease
protocol and operator runbook):
  cohmeleon run -shared -cache-dir /shared/cache -scenarios 1024 sweep &
  cohmeleon run -shared -cache-dir /shared/cache -scenarios 1024 sweep &
  wait   # each worker prints the same byte-identical report

Serve mode (HTTP job server; jobs are sweep/learners specs and their
reports are byte-identical to the equivalent 'run' invocation):
  cohmeleon serve -cache-dir cache -addr 127.0.0.1:8344
  curl -X POST localhost:8344/jobs -d '{"experiment":"sweep","profile":"tiny"}'

serve flags:
  -addr HOST:PORT           listen address (default 127.0.0.1:8344)
  -cache-dir DIR            required: cross-job dedup, checkpoints, and
                            crash-resumable job manifests live under it
  -queue N                  queued-job bound before 429 (default 16)
  -jobs N                   concurrent jobs (default 2)
  -cells N                  in-flight cell budget across all jobs
                            (default GOMAXPROCS)
  -workers N                per-job fan-out width (default GOMAXPROCS)
  -cell-retries N           attempts per transiently-failing cell (default 3)
  -job-timeout D            default per-job deadline, e.g. 30m (default none)
`)
}
