package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/runner"
)

// childFlag, as the first argument, makes the binary run one repetition of
// one workload instead of orchestrating a measurement. The parent re-executes
// itself this way so every repetition starts from a fresh process: the
// experiments package memoizes perfsim results process-wide, so an in-process
// second repetition would skip work the first one paid for.
const childFlag = "-child"

// Child modes.
const (
	modeSetup = "setup" // stop at dispatch: measures set-up alone
	modeRun   = "run"   // one untraced repetition
	modeTrace = "trace" // one traced repetition plus the substrate probes
	modeSolo  = "solo"  // service workload only: run each job spec in-process
)

// childResult is what one child reports to its parent.
type childResult struct {
	// Dispatch is when the child handed control to the entry point, in
	// Unix nanoseconds; the parent subtracts its own exec time.
	Dispatch   int64              `json:"dispatch_unix_ns"`
	Wall       float64            `json:"wall_s"`
	FirstEvent float64            `json:"first_event_s"`
	JobP50     float64            `json:"job_p50_s"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Digest     string             `json:"digest"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Problems   []string           `json:"problems,omitempty"`
}

// env is what one repetition of a workload gets.
type env struct {
	name      string
	seed      int64
	size      string
	setupOnly bool
	// work is a directory the repetition may write state under.
	work string
	// baseline is, in a traced repetition, the untraced repetition's
	// report: the search replays its candidates, every workload compares
	// its own bytes against it.
	baseline []byte

	dispatchAt time.Time
}

// dispatch marks the end of set-up. It reports false in set-up-only mode,
// where the workload must return without running.
func (e *env) dispatch() bool {
	e.dispatchAt = clock()
	return !e.setupOnly
}

func (e *env) tiny() bool { return e.size == sizeTiny }

// outcome is one repetition's result.
type outcome struct {
	// report is the byte string whose SHA-256 is pinned per (workload,
	// seed): a report document, or for the service a manifest of the
	// digests of its jobs' reports.
	report     []byte
	wall       float64
	firstEvent float64
	jobP50     float64
	attempted  int
	failed     int
	layers     map[string]float64
	problems   []string
}

// observer is the sink every runner job of the benchmark carries. It is
// cheap enough for untraced runs: it stamps the first outcome, counts
// attempts and failures, and keeps each trial's wall time as the runner
// measured it. The runner never calls Put concurrently.
type observer struct {
	start     time.Time
	first     float64
	n, failed int
	walls     []float64
}

func (o *observer) Put(t runner.TrialOutcome) error {
	if o.n == 0 {
		o.first = since(o.start)
	}
	o.n++
	if t.Err != nil {
		o.failed++
	}
	o.walls = append(o.walls, t.Wall.Seconds())
	return nil
}

// runnerLayers derives the runner layer's metrics from trial wall times
// and the makespan they ran in.
func runnerLayers(walls []float64, wall float64) map[string]float64 {
	pct, tailValue := tail(walls)
	var sum, longest float64
	for _, w := range walls {
		sum += w
		longest = max(longest, w)
	}
	busy := 0.0
	if wall > 0 {
		busy = sum / (wall * parallel)
	}
	return map[string]float64{
		"runner.trials":         float64(len(walls)),
		"runner.trial_p50_s":    median(walls),
		"runner.trial_tail_s":   tailValue,
		"runner.trial_tail_pct": pct,
		"runner.max_trial_s":    longest,
		"runner.busy_frac":      busy,
	}
}

// reportWriter is what the runner's and the search's reports share.
type reportWriter interface{ WriteJSON(io.Writer) error }

// encode renders a report the way the CLI writes it. Traced runs time the
// call as the report layer.
func encode(tr *tracer, parent string, rep reportWriter, layers map[string]float64) ([]byte, error) {
	var buf bytes.Buffer
	start := clock()
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("encoding report: %w", err)
	}
	if tr != nil {
		took := since(start)
		end := tr.now()
		tr.add(Span{ID: parent + "/report", Name: "report", Parent: parent, Start: end - took, End: end})
		layers["report.encode_s"] += took
		layers["report.bytes"] += float64(buf.Len())
	}
	return buf.Bytes(), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runChild executes one repetition and writes its childResult to -out.
func runChild(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench "+childFlag, flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	size := fs.String("size", sizeFull, "full or tiny")
	mode := fs.String("mode", modeRun, "setup, run, trace or solo")
	out := fs.String("out", "", "file to write the result to")
	work := fs.String("work", "", "directory the repetition may write state under")
	reportOut := fs.String("report", "", "file to write the report bytes to")
	baseline := fs.String("baseline", "", "traced runs: the untraced run's report")
	spansOut := fs.String("spans", "", "traced runs: file to write the spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *out == "" {
		fmt.Fprintf(stderr, "bench: child needs a known -workload and -out\n")
		return 2
	}
	e := &env{name: w.name, seed: *seed, size: *size, setupOnly: *mode == modeSetup, work: *work}
	if *baseline != "" {
		b, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		e.baseline = b
	}

	var tr *tracer
	if *mode == modeTrace {
		tr = newTracer()
	}
	var o *outcome
	var err error
	switch {
	case *mode == modeSolo:
		o, err = soloService(e)
	case tr != nil:
		err = tr.span(w.name, "workload", "", func() error {
			var err error
			o, err = w.run(e, tr)
			return err
		})
	default:
		o, err = w.run(e, nil)
	}

	res := childResult{Dispatch: e.dispatchAt.UnixNano()}
	if err != nil {
		res.Problems = append(res.Problems, err.Error())
	}
	if o != nil {
		res.Wall, res.FirstEvent, res.JobP50 = o.wall, o.firstEvent, o.jobP50
		res.Attempted, res.Failed = o.attempted, o.failed
		res.Digest = digest(o.report)
		res.Problems = append(res.Problems, o.problems...)
		if e.baseline != nil && !bytes.Equal(o.report, e.baseline) {
			res.Problems = append(res.Problems, "traced report differs from the untraced report")
		}
		if *reportOut != "" {
			if err := os.WriteFile(*reportOut, o.report, 0o644); err != nil {
				res.Problems = append(res.Problems, err.Error())
			}
		}
	}
	if tr != nil && err == nil && o != nil {
		probes, err := substrate(tr)
		if err != nil {
			res.Problems = append(res.Problems, err.Error())
		}
		spans := tr.finish()
		res.Layers = layerTimes(spans)
		for _, m := range []map[string]float64{o.layers, probes} {
			for k, v := range m {
				res.Layers[k] = v
			}
		}
		for _, k := range unreachedLayers {
			if _, ok := res.Layers[k]; !ok {
				res.Layers[k] = 0
			}
		}
		if *spansOut != "" {
			if err := writeJSON(*spansOut, map[string]any{
				"workload": w.name, "seed": *seed, "size": *size,
				"spans": spans, "layers": res.Layers,
			}); err != nil {
				res.Problems = append(res.Problems, err.Error())
			}
		}
	}
	if err := writeJSON(*out, res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// unreachedLayers are counts that read 0 on a workload whose path does
// not reach their layer (no search job, no service).
var unreachedLayers = []string{
	"search.candidates", "search.generations",
	"service.events", "journal.bytes_per_trial", "artifacts.disk_files", "artifacts.disk_bytes",
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
