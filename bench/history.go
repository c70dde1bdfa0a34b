package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// machine identifies where a record was measured. Host times compare only
// between records with equal machines.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func thisMachine() machine {
	m := machine{CPU: runtime.GOARCH, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// commit is the revision stamped into the binary, "" when the build was
// not made inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "-dirty"
	}
	return rev
}

// record is one line of the history: one measured workload.
type record struct {
	Time     string             `json:"time"`
	Label    string             `json:"label"`
	Commit   string             `json:"commit,omitempty"`
	Machine  machine            `json:"machine"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Size     string             `json:"size"`
	Traced   bool               `json:"traced"`
	Reps     int                `json:"reps"`
	Correct  bool               `json:"correct"`
	Metrics  map[string]summary `json:"metrics"`
}

// appendHistory appends one record for res. The file is only ever
// appended to.
func appendHistory(o options, res *result) error {
	rec := record{
		Time: clock().UTC().Format(time.RFC3339), Label: o.label, Commit: commit(), Machine: thisMachine(),
		Workload: res.workload, Seed: res.seed, Size: res.size, Traced: res.traced, Reps: res.reps,
		Correct: res.correct(), Metrics: res.metrics,
	}
	if rec.Label == "" {
		rec.Label = rec.Commit
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(o.history, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compareHistory judges change B against parent A from the untraced
// records of this machine, per workload, seed and end-to-end metric. Each
// record holds one run's median; the i-th runs of A and B form a pair.
// A gain needs at least ten pairs, B winning nine in ten of them, and the
// medians differing by more than A's interquartile range. A regression is
// B's median worse than A's by more than the metric's bound; when A's own
// spread is wider than the bound the metric is unresolved unless every
// run of B beats every run of A. It exits 1 when anything regressed.
func compareHistory(o options, spec benchSpec, stdout, stderr io.Writer) int {
	a, b, ok := strings.Cut(o.compare, ",")
	if !ok || a == "" || b == "" {
		fmt.Fprintf(stderr, "bench: -compare takes PARENT,CHANGE labels\n")
		return 2
	}
	f, err := os.Open(o.history)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	defer f.Close()
	me := thisMachine()
	type key struct {
		workload string
		seed     int64
	}
	runs := map[key]map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var r record
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Machine != me || r.Traced || !r.Correct || r.Size != o.size ||
			(r.Label != a && r.Label != b) || (o.workload != "all" && r.Workload != o.workload) {
			continue
		}
		k := key{r.Workload, r.Seed}
		if runs[k] == nil {
			runs[k] = map[string][]record{}
		}
		runs[k][r.Label] = append(runs[k][r.Label], r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	keys := make([]key, 0, len(runs))
	for k := range runs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].seed < keys[j].seed
	})

	fmt.Fprintf(stdout, "machine: %s, %d CPUs, GOMAXPROCS %d, %s\n", me.CPU, me.NProc, me.GOMAXPROCS, me.Go)
	fmt.Fprintf(stdout, "%-14s %5s %-18s %8s %12s %12s %9s %7s  %s\n", "workload", "seed", "metric", "runs", a, b, "change", "wins", "verdict")
	code := 0
	for _, k := range keys {
		for _, m := range spec.EndToEnd {
			pa, pb := medians(runs[k][a], m.Name), medians(runs[k][b], m.Name)
			if len(pa) == 0 || len(pb) == 0 {
				continue
			}
			v := judge(pa, pb, m)
			if v.verdict == "regression" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-14s %5d %-18s %3d/%-4d %12.6g %12.6g %+8.2f%% %3d/%-3d  %s\n",
				k.workload, k.seed, m.Name, len(pa), len(pb), v.medA, v.medB, 100*v.change, v.wins, v.pairs, v.verdict)
		}
	}
	return code
}

func medians(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if s, ok := r.Metrics[name]; ok && s.N > 0 {
			out = append(out, s.Median)
		}
	}
	return out
}

// verdict is one metric's comparison of parent runs a with change runs b.
type verdict struct {
	medA, medB, change float64
	wins, pairs        int
	verdict            string
}

func judge(a, b []float64, m metricSpec) verdict {
	sign := 1.0 // positive change = better
	if m.Better == "lower" {
		sign = -1
	}
	sa := summarize(a, m.Unit)
	v := verdict{medA: sa.Median, medB: median(b), pairs: min(len(a), len(b))}
	v.change = (v.medB - v.medA) / v.medA
	for i := 0; i < v.pairs; i++ {
		if sign*(b[i]-a[i]) > 0 {
			v.wins++
		}
	}
	allBetter := sign*(minMax(b, sign < 0)-minMax(a, sign > 0)) > 0
	switch {
	case v.pairs >= 10 && 10*v.wins >= 9*v.pairs && sign*(v.medB-v.medA) > sa.Q3-sa.Q1:
		v.verdict = "gain"
	case (sa.Q3-sa.Q1)/sa.Median > m.Bound && !allBetter:
		v.verdict = "unresolved"
	case -sign*v.change > m.Bound:
		v.verdict = "regression"
	default:
		v.verdict = "no regression"
	}
	return v
}

// minMax returns the largest of xs when largest is true, else the smallest.
func minMax(xs []float64, largest bool) float64 {
	out := math.Inf(1)
	if largest {
		out = math.Inf(-1)
	}
	for _, x := range xs {
		if (largest && x > out) || (!largest && x < out) {
			out = x
		}
	}
	return out
}
