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
// Progress on stderr defaults to a throttled one-line summary
// (done/total, percentage, ETA); -v restores the per-trial log and -q
// silences both.
//
// Exit status: 0 when every selected experiment (or sweep cell)
// succeeded, 1 when any failed, 2 on usage errors, 3 when -trial-budget
// stopped the run before completion.
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
	"repro/internal/scenario"
	"repro/internal/search"
)

func main() {
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	sweep := flag.String("sweep", "", "run one parameter sweep by id instead of -exp (use -list)")
	scaleFlag := flag.String("scale", "demo", "demo or paper")
	seed := flag.Int64("seed", 1, "root random seed")
	trials := flag.Int("trials", 1, "trials per experiment (each trial measures the one prepared machine under per-trial ambient randomness; experiments without an offline phase recompute fully per trial)")
	parallel := flag.Int("parallel", 0, "worker-pool width (0 = GOMAXPROCS)")
	cold := flag.Bool("cold", false, "rebuild the (shared, trial-0-seeded) offline artifacts for every trial instead of caching them across trials and sweep cells (results are byte-identical either way)")
	artifactDir := flag.String("artifact-dir", "", "persist offline artifacts to this directory, content-addressed, so repeated invocations skip offline phases (warm mode only; results are byte-identical either way)")
	artifactMax := flag.Int64("artifact-max-bytes", 0, "cap the -artifact-dir store at N bytes, evicting least-recently-used entries (0 = unlimited; eviction only costs rebuild time)")
	defenseFlag := flag.String("defense", "", "comma-separated defense names restricting a sweep's defense axis (requires -sweep; cell keys and seeds match the full sweep's)")
	searchFlag := flag.Bool("search", false, "run the defense Pareto-frontier search instead of -exp/-sweep")
	searchBudget := flag.Int("search-budget", 0, "total candidate evaluations for -search (0 = default 240)")
	searchEps := flag.Float64("search-eps", 0, "overhead-axis ε-dominance slack for -search (0 = default 0.005; negative = strict dominance)")
	checkpointDir := flag.String("checkpoint-dir", "", "journal each completed trial to this directory, keyed by the run identity (results are byte-identical either way)")
	resume := flag.Bool("resume", false, "replay completed trials from the -checkpoint-dir journal and execute only the rest")
	trialBudget := flag.Int("trial-budget", 0, "execute at most N trials this invocation (0 = unlimited; requires -checkpoint-dir; exit status 3 when work remains)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while the run executes")
	format := flag.String("format", "text", "output format: text or json")
	out := flag.String("o", "", "write results to file instead of stdout")
	verbose := flag.Bool("v", false, "per-trial progress lines on stderr instead of the throttled summary")
	quiet := flag.Bool("q", false, "suppress all progress on stderr")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			if e.Kind == experiments.KindSweep {
				fmt.Printf("%-18s [sweep, %d cells] %s\n", e.ID, e.Grid.Size(), e.Short)
			} else {
				fmt.Printf("%-18s %s\n", e.ID, e.Short)
			}
		}
		return 0
	}
	scale := experiments.Demo
	switch *scaleFlag {
	case "demo":
	case "paper":
		scale = experiments.Paper
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want demo or paper)\n", *scaleFlag)
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "unknown format %q (want text or json)\n", *format)
		return 2
	}
	if *trials < 1 {
		fmt.Fprintf(os.Stderr, "-trials must be >= 1\n")
		return 2
	}

	if !*searchFlag && (*searchBudget != 0 || *searchEps != 0) {
		fmt.Fprintf(os.Stderr, "-search-budget and -search-eps require -search\n")
		return 2
	}
	var selected []experiments.Experiment
	var sweepSel experiments.Sweep
	if *searchFlag {
		if *sweep != "" || *exp != "all" || *defenseFlag != "" {
			fmt.Fprintf(os.Stderr, "-search is mutually exclusive with -exp, -sweep, and -defense\n")
			return 2
		}
		if *trials != 1 {
			// A candidate's score is already a pure function of (params,
			// scale, seed); repeated trials would re-measure identical
			// numbers under the search's one-trial journal identity.
			fmt.Fprintf(os.Stderr, "-search runs one trial per candidate (drop -trials)\n")
			return 2
		}
	} else if *sweep != "" {
		if *exp != "all" {
			fmt.Fprintf(os.Stderr, "-sweep and -exp are mutually exclusive\n")
			return 2
		}
		ent, ok := experiments.Lookup(*sweep)
		if !ok || ent.Kind != experiments.KindSweep {
			fmt.Fprintf(os.Stderr, "unknown sweep %q (use -list)\n", *sweep)
			return 2
		}
		sweepSel = ent.Sweep
		if *defenseFlag != "" {
			grid, err := sweepSel.Grid.Restrict(scenario.AxisDefense, strings.Split(*defenseFlag, ","))
			if err != nil {
				fmt.Fprintf(os.Stderr, "-defense: %v\n", err)
				return 2
			}
			sweepSel.Grid = grid
		}
	} else if *defenseFlag != "" {
		fmt.Fprintf(os.Stderr, "-defense requires -sweep\n")
		return 2
	} else if *exp == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ent, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok || ent.Kind != experiments.KindExperiment {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, ent.Experiment)
		}
	}

	if *pprofAddr != "" {
		// Listen synchronously so a bad address fails fast, then serve in
		// the background; the blank pprof import registered its handlers
		// on the default mux. The listener dies with the process.
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-pprof: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", ln.Addr())
		go http.Serve(ln, nil)
	}

	// Open the output file before the sweep so a bad path fails fast
	// instead of discarding a potentially hours-long run.
	dst := io.Writer(os.Stdout)
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "open output: %v\n", err)
			return 2
		}
		outFile = f
		dst = f
	}

	var progress io.Writer
	if !*quiet {
		progress = os.Stderr
	}
	width := *parallel
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	if *artifactDir != "" && *cold {
		fmt.Fprintf(os.Stderr, "-artifact-dir requires warm mode (drop -cold)\n")
		return 2
	}
	if *artifactMax > 0 && *artifactDir == "" {
		fmt.Fprintf(os.Stderr, "-artifact-max-bytes requires -artifact-dir\n")
		return 2
	}
	if (*resume || *trialBudget > 0) && *checkpointDir == "" {
		fmt.Fprintf(os.Stderr, "-resume and -trial-budget require -checkpoint-dir\n")
		return 2
	}
	cfg := runner.Config{
		Parallel:         width,
		Warm:             !*cold,
		ArtifactDir:      *artifactDir,
		ArtifactMaxBytes: *artifactMax,
		CheckpointDir:    *checkpointDir,
		Resume:           *resume,
		TrialBudget:      *trialBudget,
		Progress:         progress,
		Verbose:          *verbose,
	}
	rn := runner.New(cfg)
	job := runner.Job{Scale: scale, Seed: *seed, Trials: *trials}
	// Both report kinds share the output and exit-status contract.
	var rep interface {
		WriteJSON(io.Writer) error
		WriteText(io.Writer) error
		Failed() int
	}
	var total int
	unit := "experiment"
	start := time.Now()
	if *searchFlag {
		budget := *searchBudget
		if budget <= 0 {
			budget = search.DefaultBudget
		}
		if progress != nil {
			fmt.Fprintf(progress, "searching the defense frontier: budget %d candidate(s) on %d worker(s), %s scale, seed %d\n",
				budget, width, scale, *seed)
		}
		r, err := search.Run(search.Options{
			Scale:   scale,
			Seed:    *seed,
			Budget:  *searchBudget,
			Epsilon: *searchEps,
			Runner:  cfg,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "search: %v\n", err)
			if errors.Is(err, runner.ErrBudget) {
				return 3
			}
			return 2
		}
		rep, total, unit = r, r.Evaluated, "candidate"
	} else if *sweep != "" {
		if progress != nil {
			fmt.Fprintf(progress, "sweeping %s: %d cell(s) x %d trial(s) on %d worker(s), %s scale, seed %d\n",
				sweepSel.ID, sweepSel.Grid.Size(), *trials, width, scale, *seed)
		}
		r, err := rn.RunSweep(sweepSel, job)
		if err != nil {
			fmt.Fprintf(os.Stderr, "runner: %v\n", err)
			if errors.Is(err, runner.ErrBudget) {
				return 3
			}
			return 2
		}
		rep, total, unit = r, len(r.Cells), "cell"
	} else {
		if progress != nil {
			fmt.Fprintf(progress, "running %d experiment(s) x %d trial(s) on %d worker(s), %s scale, seed %d\n",
				len(selected), *trials, width, scale, *seed)
		}
		r, err := rn.Run(selected, job)
		if err != nil {
			fmt.Fprintf(os.Stderr, "runner: %v\n", err)
			if errors.Is(err, runner.ErrBudget) {
				return 3
			}
			return 2
		}
		rep, total = r, len(r.Experiments)
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
		if outFile != nil {
			// Don't leave a truncated document for a later consumer.
			// Only regular files: -o may point at a device or pipe.
			outFile.Close()
			if fi, serr := os.Stat(outFile.Name()); serr == nil && fi.Mode().IsRegular() {
				os.Remove(outFile.Name())
			}
		}
		fmt.Fprintf(os.Stderr, "write results: %v\n", werr)
		return 2
	}

	if failed := rep.Failed(); failed > 0 {
		fmt.Fprintf(os.Stderr, "%d/%d %s(s) failed\n", failed, total, unit)
		return 1
	}
	return 0
}
