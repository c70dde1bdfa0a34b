// Command experiments regenerates the paper's tables and figures through
// the concurrent multi-trial runner, and runs the parameter-sweep
// sensitivity studies.
//
// Usage:
//
//	experiments [-exp id,id,...|all] [-scale demo|paper] [-seed N]
//	            [-trials T] [-parallel N] [-cold] [-artifact-dir dir]
//	            [-artifact-max-bytes N] [-checkpoint-dir dir] [-resume]
//	            [-trial-budget N] [-pprof addr] [-format text|json]
//	            [-o file] [-v|-q]
//	experiments -sweep id [-defense name,name,...] [same flags]
//	experiments -search [-search-budget N] [-search-eps E] [same flags]
//
// Experiment ids follow the paper: fig5..fig16, table1, table2,
// fingerprint (use -list for the full set, including sweep ids). Demo
// scale (default) runs a structurally faithful scaled machine in seconds;
// paper scale runs the full 20 MB machine and can take minutes per
// offline-phase experiment.
//
// Each experiment runs as T trials with decorrelated seeds derived from
// the root seed, fanned out over a worker pool. The trials share one
// prepared machine (trial 0's) and differ in re-derived ambient
// randomness — timer jitter, background noise, online streams — so the
// reported spread is measurement variance on a fixed machine, not
// machine-layout variance; experiments with no offline phase (fig5,
// fig6, table2, fig14-fig16) recompute everything under each trial's
// seed. Metrics are aggregated into mean / stddev / min-max; -format
// json emits a stable machine-readable document whose bytes depend only
// on (selection, scale, seed, trials) — never on -parallel or -cold — so
// CI can diff it.
//
// -sweep runs one sensitivity study instead: the sweep's cartesian grid
// of scenario axes is fanned out over the worker pool with decorrelated
// per-cell seeds, and the aggregated curve is emitted keyed by cell
// coordinates under the packetchasing-sweep/v2 schema (numeric coords
// plus name labels for categorical axes like the defense registry), with
// the same parallel-width byte-determinism contract. -defense restricts
// a sweep's defense axis to the named defenses without changing the
// surviving cells' keys or seeds: a restricted run is byte-identical to
// the matching slice of the full sweep.
//
// -search runs the defense Pareto-frontier search instead: a two-phase
// driver (coarse grid over partition way-counts, ring re-randomization
// periods, and timer-coarsening granularities; then hill-climb
// refinement around the current frontier) scores up to -search-budget
// candidate defenses on leakage (strongest calibrated attack) versus
// overhead (perfsim Nginx p99 delta) and emits the ε-non-dominated
// frontier under the packetchasing-frontier/v1 schema. -search-eps sets
// the overhead-axis dominance slack (0 = the default 0.005; negative =
// strict). The report is byte-deterministic across -parallel widths and
// resumable via -checkpoint-dir/-resume like any other run.
//
// Warm starts (the default) exploit the attack's phase structure: the
// expensive offline phase — eviction-set construction, latency
// calibration — is run once per distinct machine shape and snapshotted;
// every further trial (and every sweep cell whose swept axes don't touch
// offline state) measures on machines cloned from the snapshot. -cold
// disables the reuse. -artifact-dir additionally persists the artifacts
// to disk, content-addressed by the same key, so the next invocation (or
// a CI job with a restored cache directory) skips the offline phases
// entirely; -artifact-max-bytes caps that directory with least-recently-
// used eviction. The output bytes are identical in every mode; only the
// wall clock differs.
//
// -checkpoint-dir journals every completed trial to a content-addressed
// file keyed by the run's identity (kind, sweep id, scale, seed, trials).
// A later invocation with -resume replays the journaled trials and runs
// only what is missing; the emitted report is byte-identical to an
// uninterrupted run. -trial-budget N bounds how many trials one
// invocation executes (replayed trials are free), so a long sweep can be
// split across invocations — or a CI job can deliberately stop partway
// and prove resume correctness.
//
// Every invocation is one service.JobSpec: -exp selects an experiments
// job (-exp all leaves the selection empty, the whole registry), -sweep
// a sweep job and -search a search job; the other flags fill the spec's
// scale, seed, trials, cold, defense, budget and epsilon. The spec goes
// through service.Resolve and Resolved.Run, the same resolver and
// dispatch an experimentd job takes, so a solo run and a daemon job of
// one spec emit the same bytes. A spec Resolve rejects (an unknown id,
// -defense without -sweep, a negative -search-budget, ...) is a usage
// error, and so is a contradictory flag combination (-cold with
// -artifact-dir, -resume without -checkpoint-dir, ...). Usage errors are
// caught before the artifact directory is created.
//
// Progress on stderr is one banner line naming the job, then a
// throttled one-line summary (done/total, percentage, ETA); -v restores
// the per-trial log and -q silences both.
//
// Exit status: 0 when every selected experiment (or sweep cell, or
// search candidate) succeeded, 1 when any failed, 2 on usage or harness
// errors, 3 when -trial-budget stopped the run before completion. Only
// exits 0 and 1 write a report; on any other exit a regular -o file is
// removed rather than left empty.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -pprof
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the report to stdout
// (or -o) and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma-separated experiment ids, or 'all'")
	sweep := fs.String("sweep", "", "run one parameter sweep by id instead of -exp (use -list)")
	scaleFlag := fs.String("scale", "demo", "demo or paper")
	seed := fs.Int64("seed", 1, "root random seed")
	trials := fs.Int("trials", 1, "trials per experiment (each trial measures the one prepared machine under per-trial ambient randomness; experiments without an offline phase recompute fully per trial)")
	parallel := fs.Int("parallel", 0, "worker-pool width (0 = GOMAXPROCS)")
	cold := fs.Bool("cold", false, "rebuild the (shared, trial-0-seeded) offline artifacts for every trial instead of caching them across trials and sweep cells (results are byte-identical either way)")
	artifactDir := fs.String("artifact-dir", "", "persist offline artifacts to this directory, content-addressed, so repeated invocations skip offline phases (warm mode only; results are byte-identical either way)")
	artifactMax := fs.Int64("artifact-max-bytes", 0, "cap the -artifact-dir store at N bytes, evicting least-recently-used entries (0 = unlimited; eviction only costs rebuild time)")
	defenseFlag := fs.String("defense", "", "comma-separated defense names restricting a sweep's defense axis (requires -sweep; cell keys and seeds match the full sweep's)")
	searchFlag := fs.Bool("search", false, "run the defense Pareto-frontier search instead of -exp/-sweep")
	searchBudget := fs.Int("search-budget", 0, "total candidate evaluations for -search (0 = default 240)")
	searchEps := fs.Float64("search-eps", 0, "overhead-axis ε-dominance slack for -search (0 = default 0.005; negative = strict dominance)")
	checkpointDir := fs.String("checkpoint-dir", "", "journal each completed trial to this directory, keyed by the run identity (results are byte-identical either way)")
	resume := fs.Bool("resume", false, "replay completed trials from the -checkpoint-dir journal and execute only the rest")
	trialBudget := fs.Int("trial-budget", 0, "execute at most N trials this invocation (0 = unlimited; requires -checkpoint-dir; exit status 3 when work remains)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while the run executes")
	format := fs.String("format", "text", "output format: text or json")
	out := fs.String("o", "", "write results to file instead of stdout")
	verbose := fs.Bool("v", false, "per-trial progress lines on stderr instead of the throttled summary")
	quiet := fs.Bool("q", false, "suppress all progress on stderr")
	list := fs.Bool("list", false, "list experiment ids and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-18s %s\n", e.ID, e.Short)
		}
		for _, s := range experiments.Sweeps() {
			fmt.Fprintf(stdout, "%-18s [sweep, %d cells] %s\n", s.ID, s.Grid.Size(), s.Short)
		}
		return 0
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "unknown format %q (want text or json)\n", *format)
		return 2
	}
	// The spec reads 0 trials as 1 and an empty scale as demo; the flags
	// do not.
	if *trials < 1 {
		fmt.Fprintf(stderr, "-trials must be >= 1\n")
		return 2
	}
	if *scaleFlag == "" {
		fmt.Fprintf(stderr, "unknown scale \"\" (want demo or paper)\n")
		return 2
	}
	if *artifactDir != "" && *cold {
		fmt.Fprintf(stderr, "-artifact-dir requires warm mode (drop -cold)\n")
		return 2
	}
	if *artifactMax != 0 && *artifactDir == "" {
		fmt.Fprintf(stderr, "-artifact-max-bytes requires -artifact-dir\n")
		return 2
	}

	spec := service.JobSpec{
		Kind:    service.KindExperiments,
		Scale:   *scaleFlag,
		Seed:    seed,
		Trials:  *trials,
		Cold:    *cold,
		Budget:  *searchBudget,
		Epsilon: *searchEps,
	}
	if *exp != "all" {
		spec.Experiments = strings.Split(*exp, ",")
	}
	if *sweep != "" {
		spec.Kind, spec.Sweep = service.KindSweep, *sweep
	}
	if *searchFlag {
		spec.Kind = service.KindSearch
	}
	if *defenseFlag != "" {
		spec.Defense = strings.Split(*defenseFlag, ",")
	}
	res, err := service.Resolve(spec)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 2
	}

	var progress io.Writer
	if !*quiet {
		progress = stderr
	}
	width := *parallel
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	cfg := runner.Config{
		Parallel:      width,
		Warm:          !*cold,
		CheckpointDir: *checkpointDir,
		Resume:        *resume,
		TrialBudget:   *trialBudget,
		Progress:      progress,
		Verbose:       *verbose,
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 2
	}

	if *pprofAddr != "" {
		// Listen synchronously so a bad address fails fast, then serve in
		// the background; the blank pprof import registered its handlers
		// on the default mux. The listener dies with the process.
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(stderr, "-pprof: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "pprof: http://%s/debug/pprof/\n", ln.Addr())
		go http.Serve(ln, nil)
	}

	// Open the output file before the run so a bad path fails fast
	// instead of discarding a potentially hours-long run.
	dst := stdout
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "open output: %v\n", err)
			return 2
		}
		outFile = f
		dst = f
	}
	// fail exits without a report. It leaves no empty or truncated
	// document for a later consumer; only regular files are removed,
	// since -o may point at a device or pipe.
	fail := func(code int, format string, args ...any) int {
		if outFile != nil {
			outFile.Close()
			if fi, err := os.Stat(outFile.Name()); err == nil && fi.Mode().IsRegular() {
				os.Remove(outFile.Name())
			}
		}
		fmt.Fprintf(stderr, format, args...)
		return code
	}

	if *artifactDir != "" {
		store, err := experiments.NewDiskArtifactStore(*artifactDir, *artifactMax)
		if err != nil {
			return fail(2, "%v\n", err)
		}
		cfg.Store = store
	}

	if progress != nil {
		fmt.Fprintf(progress, "running %s job: %d unit(s) x %d trial(s) on %d worker(s), %s scale, seed %d\n",
			res.Spec.Kind, res.Units, res.Spec.Trials, width, res.Spec.Scale, *res.Spec.Seed)
	}
	start := time.Now()
	rep, err := res.Run(cfg)
	if err != nil {
		if errors.Is(err, runner.ErrBudget) {
			return fail(3, "%v\n", err)
		}
		return fail(2, "%v\n", err)
	}
	if progress != nil {
		fmt.Fprintf(progress, "finished in %.1fs wall\n", time.Since(start).Seconds())
	}

	var werr error
	if *format == "json" {
		werr = rep.WriteJSON(dst)
	} else {
		werr = rep.WriteText(dst)
	}
	if werr == nil && outFile != nil {
		// Close errors matter: a failed write-back flush would leave a
		// truncated results file behind a zero exit status.
		werr = outFile.Close()
	}
	if werr != nil {
		return fail(2, "write results: %v\n", werr)
	}

	if failed := rep.Failed(); failed > 0 {
		fmt.Fprintf(stderr, "%d/%d unit(s) failed\n", failed, res.Units)
		return 1
	}
	return 0
}
