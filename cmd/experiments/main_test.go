package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestUsageErrorsExit2 runs every flag combination the CLI rejects: each
// must exit 2 before any work and leave no -o file or artifact directory
// behind.
func TestUsageErrorsExit2(t *testing.T) {
	cases := map[string][]string{
		"unknown flag":                  {"-nope"},
		"unknown experiment":            {"-exp", "no_such_fig"},
		"unknown sweep":                 {"-sweep", "no_such_sweep"},
		"sweep id as experiment":        {"-exp", "sens_chase_noise"},
		"duplicate experiment":          {"-exp", "fig5,fig5"},
		"unknown scale":                 {"-scale", "huge"},
		"empty scale":                   {"-scale", ""},
		"unknown format":                {"-format", "xml"},
		"zero trials":                   {"-trials", "0"},
		"sweep with exp":                {"-sweep", "sens_chase_noise", "-exp", "fig5"},
		"defense without sweep":         {"-defense", "none"},
		"unknown defense label":         {"-sweep", "sens_chase_defense", "-defense", "no_such_defense"},
		"search with exp":               {"-search", "-exp", "fig5"},
		"search with sweep":             {"-search", "-sweep", "sens_chase_noise"},
		"search with trials":            {"-search", "-trials", "2"},
		"search budget without search":  {"-search-budget", "8"},
		"search eps without search":     {"-search-eps", "0.1"},
		"negative search budget":        {"-search", "-search-budget", "-1"},
		"artifact dir in cold mode":     {"-exp", "fig5", "-cold", "-artifact-dir", "art"},
		"size cap without dir":          {"-exp", "fig5", "-artifact-max-bytes", "5"},
		"negative size cap without dir": {"-exp", "fig5", "-artifact-max-bytes", "-1"},
		"negative size cap":             {"-exp", "fig5", "-artifact-dir", "art", "-artifact-max-bytes", "-1"},
		"resume without checkpoint":     {"-exp", "fig5", "-resume"},
		"budget without checkpoint":     {"-exp", "fig5", "-trial-budget", "1"},
		"negative trial budget":         {"-exp", "fig5", "-trial-budget", "-1"},
		"negative budget, checkpoint":   {"-exp", "fig5", "-checkpoint-dir", "art", "-trial-budget", "-1"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			out := filepath.Join(dir, "out.json")
			args := append([]string{"-q", "-o", out}, args...)
			for i, a := range args {
				if a == "art" {
					args[i] = filepath.Join(dir, a)
				}
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if stderr.Len() == 0 {
				t.Error("no diagnostic on stderr")
			}
			assertNoFile(t, out)
			assertNoFile(t, filepath.Join(dir, "art"))
		})
	}
}

// TestFailedRunsLeaveNoOutput: a run that stops without a report — a
// spent trial budget (exit 3) or a harness error (exit 2) — removes the
// -o file it opened.
func TestFailedRunsLeaveNoOutput(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"trial budget", []string{"-checkpoint-dir", filepath.Join(dir, "ckpt"), "-trial-budget", "1"}, 3},
		{"unusable checkpoint dir", []string{"-checkpoint-dir", blocker}, 2},
	} {
		out := filepath.Join(dir, tc.name+".json")
		args := append([]string{"-exp", "fig5", "-trials", "2", "-format", "json", "-q", "-o", out}, tc.args...)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != tc.want {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, code, tc.want, stderr.String())
		}
		if strings.Contains(stderr.String(), "runner: runner:") {
			t.Errorf("%s: doubled error prefix: %s", tc.name, stderr.String())
		}
		assertNoFile(t, out)
	}
}

// TestCLIMatchesService: a solo run's JSON is byte-identical to the
// report an experimentd job of the same spec serves.
func TestCLIMatchesService(t *testing.T) {
	out := filepath.Join(t.TempDir(), "solo.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig5", "-trials", "2", "-format", "json", "-q", "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	svc, err := service.Open(service.Config{StateDir: t.TempDir(), Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := svc.Submit(service.JobSpec{Kind: service.KindExperiments, Experiments: []string{"fig5"}, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	want, err := svc.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("CLI report differs from the service report:\n%s\nvs\n%s", got, want)
	}
}

// TestList: -list prints the registry to stdout and exits 0.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, id := range []string{"fig5", "sens_chase_noise"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("-list omits %s", id)
		}
	}
}

func assertNoFile(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("%s left behind (stat: %v)", path, err)
	}
}
