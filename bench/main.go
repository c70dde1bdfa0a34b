// Command bench is the repository's benchmark. It runs named workloads
// through the real entry points — runner.New(cfg).Run and RunSweep,
// search.Run, and service.Open with Service.Handler — measures end-to-end
// host metrics over fresh child processes, checks every report against
// its pinned SHA-256, and with -trace 1 re-runs the workload with timing
// wrappers around the calls into each layer to report per-layer metrics.
//
// Run from the repository root (README.md has the details):
//
//	bash bench/run.sh --workload search --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics BENCHMARK.json names.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parent's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	reps     int
	trace    int
	size     string
	history  string
	work     string
	label    string
	pinOut   string
	pinSeeds string
	compare  string
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == childFlag {
		return runChild(args[1:], stderr)
	}
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 0, "keep adding repetitions until this many seconds are measured")
	fs.IntVar(&o.reps, "reps", 1, "minimum repetitions; each is a fresh child process")
	fs.IntVar(&o.trace, "trace", 0, "1 runs traced repetitions and reports per-layer metrics")
	fs.StringVar(&o.size, "size", sizeFull, "full, or tiny for the smoke test")
	fs.StringVar(&o.history, "history", filepath.Join("bench", "history.jsonl"), "file to append one record per measured workload to; empty disables")
	fs.StringVar(&o.work, "work", ".bench_build", "directory for child results, service state and spans")
	fs.StringVar(&o.label, "label", "", "history label (default: the commit stamped into the binary)")
	fs.StringVar(&o.pinOut, "pin", "", "instead of measuring, write digest pins for -pin-seeds into this file")
	fs.StringVar(&o.pinSeeds, "pin-seeds", "1,7", "comma-separated seeds -pin records")
	fs.StringVar(&o.compare, "compare", "", "A,B: compare history records labelled A (parent) and B (change) from this machine")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := checkOptions(o); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if o.compare != "" {
		return compareHistory(o, spec, stdout, stderr)
	}
	// An interrupted run kills the child it is waiting for before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			selected = append(selected, w)
		}
	}
	if o.pinOut != "" {
		return writePins(ctx, o, selected, stderr)
	}
	pins, err := parsePins(pinsJSON)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	code := 0
	for _, w := range selected {
		res, err := measure(ctx, w, o, pins[o.size][w.name][strconv.FormatInt(o.seed, 10)])
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if err := res.print(stdout, spec, o.trace == 1); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if o.history != "" {
			if err := appendHistory(o, res); err != nil {
				fmt.Fprintf(stderr, "bench: history: %v\n", err)
			}
		}
		if !res.correct() {
			code = 1
		}
	}
	return code
}

func checkOptions(o options) error {
	if o.workload != "all" {
		if _, ok := lookupWorkload(o.workload); !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1")
	}
	if o.size != sizeFull && o.size != sizeTiny {
		return fmt.Errorf("-size takes %s or %s", sizeFull, sizeTiny)
	}
	if o.reps < 1 || o.seconds < 0 {
		return fmt.Errorf("-reps must be at least 1 and -seconds not negative")
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json the program reads: the metrics
// it must print, with their units and bounds.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// setupLaunches is how many set-up-only children a run starts besides its
// repetitions: set-up takes milliseconds, so its median needs many samples.
const setupLaunches = 20

// childTimeout bounds one child process.
const childTimeout = 170 * time.Second

// result is one workload's measurement.
type result struct {
	workload  string
	seed      int64
	size      string
	traced    bool
	reps      int
	attempted int
	failed    int
	reportOK  bool
	pinned    bool
	problems  []string
	metrics   map[string]summary
}

func (r *result) correct() bool {
	return r.reportOK && r.failed == 0 && len(r.problems) == 0
}

// measure runs one workload: set-up-only children, then repetitions until
// both -reps and -seconds are met. Untraced, each repetition is one child
// and yields the end-to-end metrics. Traced, each is an untraced child,
// the overhead baseline whose report the traced child must reproduce,
// followed by a traced child that yields the per-layer metrics.
func measure(ctx context.Context, w workload, o options, pin string) (*result, error) {
	dir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &result{workload: w.name, seed: o.seed, size: o.size, traced: o.trace == 1, pinned: pin != ""}
	digests := map[string]bool{}
	seq := 0
	child := func(mode string, extra ...string) (*childRun, error) {
		seq++
		args := append([]string{
			"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10), "-size", o.size,
			"-mode", mode, "-work", dir,
		}, extra...)
		c, err := spawn(ctx, filepath.Join(dir, fmt.Sprintf("result-%d.json", seq)), args...)
		if err != nil {
			return nil, err
		}
		res.problems = append(res.problems, c.res.Problems...)
		if mode != modeSetup {
			digests[c.res.Digest] = true
		}
		return c, nil
	}
	spans := filepath.Join(o.work, "spans", fmt.Sprintf("%s-%s-seed%d.json", w.name, o.size, o.seed))
	if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
		return nil, err
	}

	// Traced runs skip the host-speed reference: their times are not
	// bounded. Untraced ones sample it before the first child and after
	// every child (see hostspeed.go).
	e2e := map[string][]float64{}
	var ref *refProbe
	if !res.traced {
		ref = newRefProbe()
		e2e["host.ref_s"] = []float64{ref.sample()}
		for i := 0; i < setupLaunches; i++ {
			c, err := child(modeSetup)
			if err != nil {
				return nil, err
			}
			e2e["setup_s.raw"] = append(e2e["setup_s.raw"], c.setup)
		}
	}
	layers := map[string][]float64{}
	var baseWalls, tracedWalls []float64
	start := clock()
	for res.reps < o.reps || since(start) < o.seconds {
		res.reps++
		if !res.traced {
			c, err := child(modeRun)
			if err != nil {
				return nil, err
			}
			for name, v := range map[string]float64{
				"setup_s": c.setup, "wall_s": c.res.Wall, "cpu_s": c.cpu,
				"job_p50_s": c.res.JobP50, "first_event_p50_s": c.res.FirstEvent,
			} {
				e2e[name+".raw"] = append(e2e[name+".raw"], v)
			}
			e2e["peak_rss_mb"] = append(e2e["peak_rss_mb"], c.rssMB)
			e2e["host.ref_s"] = append(e2e["host.ref_s"], ref.sample())
			res.attempted += c.res.Attempted
			res.failed += c.res.Failed
			continue
		}
		report := filepath.Join(dir, fmt.Sprintf("report-%d", res.reps))
		c, err := child(modeRun, "-report", report)
		if err != nil {
			return nil, err
		}
		baseWalls = append(baseWalls, c.res.Wall)
		t, err := child(modeTrace, "-baseline", report, "-spans", spans)
		if err != nil {
			return nil, err
		}
		tracedWalls = append(tracedWalls, t.res.Wall)
		for k, v := range t.res.Layers {
			layers[k] = append(layers[k], v)
		}
		res.attempted += t.res.Attempted
		res.failed += t.res.Failed
	}

	seen := make([]string, 0, len(digests))
	for d := range digests {
		seen = append(seen, d)
	}
	sort.Strings(seen)
	res.reportOK = len(seen) == 1 && (pin == "" || seen[0] == pin)
	if !res.reportOK {
		res.problems = append(res.problems, fmt.Sprintf("report digests %v, pinned %q", seen, pin))
	}
	if res.attempted == 0 {
		res.problems = append(res.problems, "no trial, candidate or job was attempted")
	}

	samples := layers
	if res.traced {
		layers["trace.overhead"] = []float64{median(tracedWalls)/median(baseWalls) - 1}
		for _, name := range deterministicLayers {
			for _, v := range layers[name] {
				if v != layers[name][0] {
					res.problems = append(res.problems, fmt.Sprintf("deterministic counter %s differs across repetitions: %v", name, layers[name]))
					break
				}
			}
		}
	} else {
		samples = e2e
		scale := refNominal / median(e2e["host.ref_s"])
		for _, name := range []string{"setup_s", "wall_s", "cpu_s", "job_p50_s", "first_event_p50_s"} {
			for _, v := range e2e[name+".raw"] {
				e2e[name] = append(e2e[name], v*scale)
			}
		}
	}
	res.metrics = map[string]summary{}
	for name, vs := range samples {
		unit, ok := units[name]
		if !ok {
			return nil, fmt.Errorf("metric %s has no unit", name)
		}
		res.metrics[name] = summarize(vs, unit)
	}
	return res, nil
}

// deterministicLayers are the per-layer counters a deterministic
// simulation must repeat exactly.
var deterministicLayers = []string{
	"runner.trials", "prepare.calls", "measure.calls", "run.calls", "store.builds",
	"report.bytes", "search.candidates", "search.generations", "service.events",
	"artifacts.disk_files", "artifacts.disk_bytes", "offline.cpu_accesses_demo",
}

// childRun is one finished child process.
type childRun struct {
	res   childResult
	setup float64 // exec to dispatch, seconds
	cpu   float64 // user + system seconds
	rssMB float64 // peak resident set, MiB
}

// spawn runs the benchmark binary as a child that writes its result to
// out, and waits for it. The child is killed when ctx ends or it outlives
// childTimeout.
func spawn(ctx context.Context, out string, args ...string) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args = append([]string{childFlag, "-out", out}, args...)
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := clock()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %s: %w\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	c := &childRun{}
	if err := json.Unmarshal(b, &c.res); err != nil {
		return nil, fmt.Errorf("child result %s: %w", out, err)
	}
	ps := cmd.ProcessState
	c.setup = float64(c.res.Dispatch-start.UnixNano()) / 1e9
	c.cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
	// Linux counts the memory image a child had before exec in its maxrss,
	// and Go starts children with vfork, so that image is the parent's: the
	// parent must stay smaller than any child it measures.
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return c, nil
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// units is the unit of every metric the benchmark measures. BENCHMARK.json
// names the ones the result line carries and must agree with this table.
var units = map[string]string{
	// End to end, untraced.
	"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
	"job_p50_s": "s", "first_event_p50_s": "s",
	"setup_s.raw": "s", "wall_s.raw": "s", "cpu_s.raw": "s",
	"job_p50_s.raw": "s", "first_event_p50_s.raw": "s", "host.ref_s": "s",
	// Per layer, traced.
	"runner.trials": "count", "runner.trial_p50_s": "s", "runner.trial_tail_s": "s",
	"runner.trial_tail_pct": "%", "runner.max_trial_s": "s", "runner.busy_frac": "fraction",
	"prepare.calls": "count", "prepare.s": "s", "prepare.share": "fraction",
	"measure.calls": "count", "measure.s": "s", "measure.share": "fraction",
	"run.calls": "count", "run.s": "s", "perfsim.s": "s",
	"store.builds": "count", "store.builds_per_unit": "fraction",
	"report.encode_s": "s", "report.bytes": "bytes",
	"search.candidates": "count", "search.generations": "count", "search.candidates_per_s": "1/s",
	"service.submit_p50_s": "s", "service.queue_p50_s": "s", "service.run_p50_s": "s",
	"service.report_fetch_p50_s": "s", "service.events": "count",
	"journal.bytes_per_trial": "bytes", "artifacts.disk_files": "count", "artifacts.disk_bytes": "bytes",
	"offline.build_demo_s": "s", "offline.cpu_accesses_demo": "count", "cache.ns_per_access_demo": "ns",
	"cache.read_ns_paper": "ns", "probe.evicts_ns": "ns", "nic.receive_ns": "ns",
	"testbed.new_s_demo": "s", "trace.overhead": "fraction",
}

// print writes a table of every metric measured, with its median,
// quartiles and sample count, then the result line for scripts to read:
// the metrics BENCHMARK.json names for this kind of run.
func (r *result) print(w io.Writer, spec benchSpec, traced bool) error {
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range list {
		s, ok := r.metrics[m.Name]
		if !ok || s.N == 0 {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if m.Unit != s.Unit {
			return fmt.Errorf("metric %s: BENCHMARK.json says %q, the benchmark measures %q", m.Name, m.Unit, s.Unit)
		}
		line.Metrics[m.Name] = metricValue{Value: s.Median, Unit: m.Unit}
	}

	kind := "end-to-end"
	if traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s: seed %d, %s size, %d repetition(s), %s ==\n", r.workload, r.seed, r.size, r.reps, kind)
	fmt.Fprintf(w, "%-28s %14s %14s %14s %4s  %s\n", "metric", "median", "q1", "q3", "n", "unit")
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := r.metrics[name]
		fmt.Fprintf(w, "%-28s %14.6g %14.6g %14.6g %4d  %s\n", name, s.Median, s.Q1, s.Q3, s.N, s.Unit)
	}
	failFrac := 0.0
	if r.attempted > 0 {
		failFrac = float64(r.failed) / float64(r.attempted)
	}
	reportOK := 0
	if r.reportOK {
		reportOK = 1
	}
	fmt.Fprintf(w, "%-28s %14d  (digest pinned for this seed: %v)\n", "report_ok", reportOK, r.pinned)
	fmt.Fprintf(w, "%-28s %14.6g  (%d of %d failed)\n", "fail_frac", failFrac, r.failed, r.attempted)
	problems := append([]string(nil), r.problems...)
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
