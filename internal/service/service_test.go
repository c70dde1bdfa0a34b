package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/runner"
	"repro/internal/search"
)

func ptr(v int64) *int64 { return &v }

// soloBytes runs a spec exactly the way a solo cmd/experiments
// invocation would (fresh runner, private in-memory store, default
// warm) and returns its JSON report bytes — the reference the service
// must reproduce byte-for-byte.
func soloBytes(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	res, err := Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runner.Config{Warm: !res.Spec.Cold}
	var buf bytes.Buffer
	if res.Spec.Kind == KindSearch {
		rep, err := search.Run(search.Options{
			Scale:   res.scale,
			Seed:    *res.Spec.Seed,
			Budget:  res.Spec.Budget,
			Epsilon: res.Spec.Epsilon,
			Runner:  cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if res.Spec.Kind == KindSweep {
		rep, err := runner.New(cfg).RunSweep(res.sweep, res.runnerJob())
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	} else {
		rep, err := runner.New(cfg).Run(res.selection, res.runnerJob())
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestResolveSpec: normalization must make equivalent specs the same
// job, and every malformed spec must be rejected with a client error.
func TestResolveSpec(t *testing.T) {
	a, err := Resolve(JobSpec{Kind: KindExperiments})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Resolve(JobSpec{Kind: KindExperiments, Experiments: []string{"all"}, Scale: "demo", Seed: ptr(1), Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Errorf("equivalent specs got distinct ids %s / %s", a.ID, b.ID)
	}
	if a.Units == 0 || a.Spec.Scale != "demo" || *a.Spec.Seed != 1 || a.Spec.Trials != 1 {
		t.Errorf("defaults not applied: %+v", a.Spec)
	}
	c, err := Resolve(JobSpec{Kind: KindExperiments, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.ID == a.ID {
		t.Error("different trials must be a different job")
	}

	// Search normalization: omitted budget/epsilon select the search
	// defaults, so an explicit-default submission is the same job.
	s1, err := Resolve(JobSpec{Kind: KindSearch})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Resolve(JobSpec{Kind: KindSearch, Budget: search.DefaultBudget, Epsilon: search.DefaultEpsilon, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s1.ID != s2.ID {
		t.Errorf("equivalent search specs got distinct ids %s / %s", s1.ID, s2.ID)
	}
	if s1.Units != search.DefaultBudget {
		t.Errorf("search units = %d, want the default budget", s1.Units)
	}
	if want := runner.JournalName("search", "frontier", s1.runnerJob()); s1.journal != want {
		t.Errorf("search journal = %s, want %s", s1.journal, want)
	}

	full, err := Resolve(JobSpec{Kind: KindSweep, Sweep: "sens_chase_defense"})
	if err != nil {
		t.Fatal(err)
	}
	restricted, err := Resolve(JobSpec{Kind: KindSweep, Sweep: "sens_chase_defense", Defense: []string{"none"}})
	if err != nil {
		t.Fatal(err)
	}
	if restricted.Units >= full.Units {
		t.Errorf("defense restriction did not shrink the grid: %d vs %d cells", restricted.Units, full.Units)
	}

	bad := []JobSpec{
		{Kind: "nope"},
		{Kind: KindExperiments, Experiments: []string{"no_such_fig"}},
		{Kind: KindExperiments, Experiments: []string{"fig5", " fig5"}},
		{Kind: KindExperiments, Sweep: "sens_chase_noise"},
		{Kind: KindExperiments, Defense: []string{"none"}},
		{Kind: KindExperiments, Trials: -1},
		{Kind: KindExperiments, Scale: "huge"},
		{Kind: KindSweep},
		{Kind: KindSweep, Sweep: "fig5"},
		{Kind: KindSweep, Sweep: "sens_chase_noise", Experiments: []string{"fig5"}},
		{Kind: KindSweep, Sweep: "sens_chase_noise", Defense: []string{"no-such-defense"}},
		{Kind: KindSearch, Trials: 2},
		{Kind: KindSearch, Sweep: "sens_chase_noise"},
		{Kind: KindSearch, Experiments: []string{"fig5"}},
		{Kind: KindSearch, Defense: []string{"none"}},
		{Kind: KindSearch, Budget: -1},
		{Kind: KindExperiments, Budget: 10},
		{Kind: KindSweep, Sweep: "sens_chase_noise", Epsilon: 0.1},
	}
	for _, spec := range bad {
		if _, err := Resolve(spec); err == nil {
			t.Errorf("spec %+v accepted, want error", spec)
		}
	}
}

// FuzzJobSpecJSON feeds untrusted submission bodies through the decoder
// handleSubmit uses (unknown fields rejected) and into Resolve. No
// input may panic either step. A spec that resolves must resolve again,
// to the same job ID, after its normalized form goes through the JSON
// round trip persistSpec and a restarted daemon's recover take: that ID
// is how a daemon re-adopts persisted jobs and deduplicates resubmissions.
func FuzzJobSpecJSON(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"experiments"}`,
		`{"kind":"experiments","experiments":["fig5"," fig7 "],"trials":3,"seed":-4}`,
		`{"kind":"experiments","experiments":["all"],"scale":"paper","cold":true}`,
		`{"kind":"sweep","sweep":"sens_chase_noise","trials":2}`,
		`{"kind":"sweep","sweep":"sens_chase_defense","defense":["none","adaptive-partition"]}`,
		`{"kind":"search","budget":16,"epsilon":-0.5}`,
		`{"kind":"search","epsilon":-0}`,
		`{"kind":"experiments","epsilon":-0}`,
		`{"kind":"sweep","sweep":"fig5"}`,
		`{"kind":"experiments","bogus":1}`,
		`{"kind":"experiments","seed":null,"experiments":[]}`,
		`[1,2]`,
	} {
		f.Add([]byte(seed))
	}
	decode := func(b []byte) (JobSpec, error) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		err := dec.Decode(&spec)
		return spec, err
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxSubmitBytes {
			return
		}
		spec, err := decode(body)
		if err != nil {
			return
		}
		first, err := Resolve(spec)
		if err != nil {
			return
		}
		persisted, err := json.Marshal(first.Spec)
		if err != nil {
			t.Fatalf("normalized spec %+v does not marshal: %v", first.Spec, err)
		}
		again, err := decode(persisted)
		if err != nil {
			t.Fatalf("persisted spec %s does not decode: %v", persisted, err)
		}
		second, err := Resolve(again)
		if err != nil {
			t.Fatalf("persisted spec %s no longer resolves: %v", persisted, err)
		}
		if second.ID != first.ID || second.Units != first.Units {
			t.Fatalf("spec %s resolved to job %s (%d units), its persisted form %s to job %s (%d units)",
				body, first.ID, first.Units, persisted, second.ID, second.Units)
		}
	})
}

// TestServiceDeterminismUnderConcurrentLoad is the headline contract:
// several mixed jobs submitted concurrently — different kinds, seeds,
// trial counts, warm and cold, a defense-restricted sweep — all sharing
// one pool, artifact store, and checkpoint dir, must each produce a
// report byte-identical to a solo run of the same spec.
func TestServiceDeterminismUnderConcurrentLoad(t *testing.T) {
	svc, err := Open(Config{StateDir: t.TempDir(), Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	specs := []JobSpec{
		{Kind: KindExperiments, Experiments: []string{"fig5", "fig7"}, Trials: 2},
		{Kind: KindExperiments, Experiments: []string{"fig10"}, Seed: ptr(9), Trials: 2},
		{Kind: KindSweep, Sweep: "sens_chase_noise", Trials: 1},
		{Kind: KindSweep, Sweep: "sens_covert_timer", Seed: ptr(3), Cold: true},
		{Kind: KindSweep, Sweep: "sens_chase_defense", Defense: []string{"none", "adaptive-partition"}},
	}
	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, created, err := svc.Submit(spec)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if !created {
				t.Errorf("submit %d: job existed already", i)
			}
			ids[i] = st.ID
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.Fatalf("submissions failed")
	}
	svc.WaitIdle()

	for i, spec := range specs {
		st, ok := svc.Status(ids[i])
		if !ok {
			t.Fatalf("job %d vanished", i)
		}
		if st.State != StateDone || st.Error != "" {
			t.Fatalf("job %d: state %s, error %q", i, st.State, st.Error)
		}
		if st.DoneTrials != st.TotalTrials || st.TotalTrials == 0 {
			t.Errorf("job %d: %d/%d trials", i, st.DoneTrials, st.TotalTrials)
		}
		got, err := svc.Report(ids[i])
		if err != nil {
			t.Fatalf("job %d report: %v", i, err)
		}
		if want := soloBytes(t, spec); !bytes.Equal(got, want) {
			t.Errorf("job %d (%+v): service report differs from solo run", i, spec)
		}
	}
}

// TestSameJournalIdentityJobsSerialized: two experiment jobs with equal
// (scale, seed, trials) but different selections share one checkpoint
// journal (the identity is deliberately selection-independent). The
// service must serialize them in-process — the journal flock would fail
// the second otherwise — and both must still match their solo bytes.
func TestSameJournalIdentityJobsSerialized(t *testing.T) {
	svc, err := Open(Config{StateDir: t.TempDir(), Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	specs := []JobSpec{
		{Kind: KindExperiments, Experiments: []string{"fig5"}, Trials: 2},
		{Kind: KindExperiments, Experiments: []string{"fig7"}, Trials: 2},
	}
	var ids []string
	for _, spec := range specs {
		st, _, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	svc.WaitIdle()
	for i, spec := range specs {
		st, _ := svc.Status(ids[i])
		if st.State != StateDone {
			t.Fatalf("job %d: state %s, error %q (journal contention not serialized?)", i, st.State, st.Error)
		}
		got, err := svc.Report(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if want := soloBytes(t, spec); !bytes.Equal(got, want) {
			t.Errorf("job %d: report differs from solo run", i)
		}
	}
}

// TestSearchJob: a search job runs the frontier search against the
// shared pool and store, serves the packetchasing-frontier/v1 report
// byte-identical to a solo search run, and streams one trial event per
// candidate (unit = candidate ID) to subscribers.
func TestSearchJob(t *testing.T) {
	svc, err := Open(Config{StateDir: t.TempDir(), Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Kind: KindSearch, Budget: 6}
	st, created, err := svc.Submit(spec)
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}
	if st.Units != 6 || st.TotalTrials != 6 {
		t.Fatalf("search job sized %d units / %d trials, want 6/6", st.Units, st.TotalTrials)
	}
	svc.WaitIdle()

	st, _ = svc.Status(st.ID)
	if st.State != StateDone || st.Error != "" {
		t.Fatalf("search job: state %s, error %q", st.State, st.Error)
	}
	got, err := svc.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := soloBytes(t, spec); !bytes.Equal(got, want) {
		t.Errorf("service search report differs from solo run:\n%s\n---\n%s", got, want)
	}
	var rep struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(got, &rep); err != nil || rep.Schema != search.SchemaVersion {
		t.Errorf("report schema %q (err %v), want %q", rep.Schema, err, search.SchemaVersion)
	}

	// The retained event log must carry one trial event per candidate,
	// keyed by candidate ID, ending in the terminal state event.
	history, live, cancel, err := svc.subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if live != nil {
		t.Error("terminal job must not offer a live channel")
	}
	units := map[string]bool{}
	for _, ev := range history {
		if ev.Type == EventTrial {
			units[ev.Unit] = true
		}
	}
	if len(units) != 6 {
		t.Errorf("event log has %d candidate units, want 6: %v", len(units), units)
	}
	if !units["p0-roff-t0"] || !units["p3-roff-t64"] {
		t.Errorf("anchor candidates missing from event units: %v", units)
	}
	if last := history[len(history)-1]; last.Type != EventState || last.State != StateDone {
		t.Errorf("last event = %+v, want terminal done state", last)
	}
}

// TestSubmitIdempotent: resubmitting a spec returns the existing job.
func TestSubmitIdempotent(t *testing.T) {
	svc, err := Open(Config{StateDir: t.TempDir(), Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Kind: KindExperiments, Experiments: []string{"fig5"}}
	st1, created, err := svc.Submit(spec)
	if err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	st2, created, err := svc.Submit(spec)
	if err != nil || created {
		t.Fatalf("resubmit: created=%v err=%v", created, err)
	}
	if st1.ID != st2.ID {
		t.Errorf("resubmit got a different job: %s vs %s", st1.ID, st2.ID)
	}
	svc.WaitIdle()
	// Idempotency holds after completion too, and the spec file survived
	// exactly once.
	st3, created, err := svc.Submit(spec)
	if err != nil || created || st3.ID != st1.ID || st3.State != StateDone {
		t.Errorf("post-completion resubmit: %+v created=%v err=%v", st3, created, err)
	}
}

// TestServiceRestartResumesInterruptedJob: the crash story. A job is
// accepted (spec persisted) and partially executed (journal has some
// trials) when the daemon dies. A fresh Open over the same state dir
// must adopt the job, resume it from the journal — replaying, not
// re-running, the completed trials — and finish with bytes identical to
// an uninterrupted solo run. A second restart then serves the persisted
// report without running anything.
func TestServiceRestartResumesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Kind: KindExperiments, Experiments: []string{"fig5", "fig7"}, Trials: 2}
	res, err := Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate the pre-crash daemon: persisted spec, partial journal.
	// The journal is written by a budgeted solo run — the same bytes the
	// daemon's runner would have journaled before dying.
	ckpt := filepath.Join(dir, "checkpoints")
	jobs := filepath.Join(dir, "jobs")
	for _, d := range []string{ckpt, jobs} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	_, err = runner.New(runner.Config{Warm: true, CheckpointDir: ckpt, TrialBudget: 1}).
		Run(res.selection, res.runnerJob())
	if !errors.Is(err, runner.ErrBudget) {
		t.Fatalf("budget seeding run: %v", err)
	}
	b, err := json.Marshal(res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobs, res.ID+".spec.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}

	svc, err := Open(Config{StateDir: dir, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	svc.WaitIdle()
	st, ok := svc.Status(res.ID)
	if !ok {
		t.Fatal("restart did not adopt the persisted job")
	}
	if st.State != StateDone {
		t.Fatalf("recovered job: state %s, error %q", st.State, st.Error)
	}
	if st.ResumedTrials != 1 {
		t.Errorf("recovered job replayed %d trials, want 1 (the journaled one)", st.ResumedTrials)
	}
	if st.DoneTrials != st.TotalTrials || st.TotalTrials != 4 {
		t.Errorf("recovered job: %d/%d trials", st.DoneTrials, st.TotalTrials)
	}
	got, err := svc.Report(res.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := soloBytes(t, spec)
	if !bytes.Equal(got, want) {
		t.Error("resumed report differs from an uninterrupted solo run")
	}

	// Restart again: the finished job must be served from its persisted
	// report, with no execution (no new journal activity needed — the
	// status says done immediately).
	svc2, err := Open(Config{StateDir: dir, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	st2, ok := svc2.Status(res.ID)
	if !ok || st2.State != StateDone {
		t.Fatalf("second restart: %+v ok=%v", st2, ok)
	}
	got2, err := svc2.Report(res.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want) {
		t.Error("persisted report differs after second restart")
	}
}

// TestJobEventLog: the event log every SSE subscriber sees — queued,
// running, one event per trial, terminal state last, gapless sequence
// numbers.
func TestJobEventLog(t *testing.T) {
	svc, err := Open(Config{StateDir: t.TempDir(), Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := svc.Submit(JobSpec{Kind: KindExperiments, Experiments: []string{"fig5"}, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	svc.WaitIdle()
	history, live, cancel, err := svc.subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if live != nil {
		t.Error("subscription to a finished job must not hold a live channel")
	}
	if len(history) == 0 {
		t.Fatal("empty event log")
	}
	trials := 0
	for i, ev := range history {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Type == EventTrial {
			trials++
			if ev.Unit == "" {
				t.Errorf("trial event %d missing unit", i)
			}
		}
	}
	if trials != 2 {
		t.Errorf("event log has %d trial events, want 2", trials)
	}
	if first := history[0]; first.Type != EventState || first.State != StateQueued {
		t.Errorf("first event %+v, want queued state", first)
	}
	if last := history[len(history)-1]; last.Type != EventState || last.State != StateDone {
		t.Errorf("last event %+v, want done state", last)
	}

	if _, _, _, err := svc.subscribe("no-such-job"); err == nil {
		t.Error("subscribe to unknown job must fail")
	}
}

// TestServiceRecoveryRerunsCorruptReport: a persisted report that does
// not decode is not served as done. The restarted service deletes it and
// re-runs the job, and the journal replays it to the clean bytes.
func TestServiceRecoveryRerunsCorruptReport(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Kind: KindExperiments, Experiments: []string{"fig5"}, Trials: 2}
	svc, err := Open(Config{StateDir: dir, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	want, err := svc.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(svc.reportPath(st.ID), []byte(`{"experiments": [`), 0o644); err != nil {
		t.Fatal(err)
	}

	svc2, err := Open(Config{StateDir: dir, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	svc2.WaitIdle()
	st2, ok := svc2.Status(st.ID)
	if !ok || st2.State != StateDone {
		t.Fatalf("recovered job: %+v ok=%v", st2, ok)
	}
	if st2.ResumedTrials != st2.TotalTrials {
		t.Errorf("re-run replayed %d of %d trials from the journal", st2.ResumedTrials, st2.TotalTrials)
	}
	got, err := svc2.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-run report differs from the original:\n%s", got)
	}
	if disk, err := os.ReadFile(svc2.reportPath(st.ID)); err != nil || !bytes.Equal(disk, want) {
		t.Errorf("persisted report not restored: %v", err)
	}
}

// TestOpenNegativeCapCreatesNothing: a negative artifact size cap is a
// config error Open reports before it creates any state directory.
func TestOpenNegativeCapCreatesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	if _, err := Open(Config{StateDir: dir, ArtifactMaxBytes: -1}); err == nil {
		t.Fatal("Open accepted a negative artifact size cap")
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("rejected Open left %s behind (stat err %v)", dir, err)
	}
}

// TestReportWriteFailureFailsJob: a run whose report cannot be persisted
// (its path is occupied by a directory, so the rename fails) ends failed
// with the write error, and Report refuses rather than serving bytes
// that are not durable.
func TestReportWriteFailureFailsJob(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(Config{StateDir: dir, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Kind: KindExperiments, Experiments: []string{"fig5"}}
	res, err := Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(svc.reportPath(res.ID), "occupant"), 0o755); err != nil {
		t.Fatal(err)
	}
	st, _, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	svc.WaitIdle()
	st, _ = svc.Status(st.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "rename") {
		t.Fatalf("job %s: state %s, error %q; want failed with the rename error", st.ID, st.State, st.Error)
	}
	if b, err := svc.Report(st.ID); err == nil {
		t.Errorf("Report served %d bytes for a job whose report was never persisted", len(b))
	}
}

// FuzzCountFailedUnits feeds arbitrary bytes to the recovery decoder that
// reads persisted reports back. It must never panic, and on every seed —
// a real experiments, sweep and search report, each also with one entry
// failed — it must count exactly what the report's own Failed() does.
func FuzzCountFailedUnits(f *testing.F) {
	want := map[string]int{}
	add := func(rep Report) {
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		want[buf.String()] = rep.Failed()
		f.Add(buf.Bytes())
	}
	for _, spec := range []JobSpec{
		{Kind: KindExperiments, Experiments: []string{"fig5", "fig7"}},
		{Kind: KindSweep, Sweep: "sens_chase_defense", Defense: []string{"none", "adaptive-partition"}},
		{Kind: KindSearch, Budget: 4},
	} {
		res, err := Resolve(spec)
		if err != nil {
			f.Fatal(err)
		}
		rep, err := res.Run(runner.Config{Warm: true})
		if err != nil {
			f.Fatal(err)
		}
		add(rep)
		switch r := rep.(type) {
		case *runner.Report:
			r.Experiments[0].OK = false
		case *runner.SweepReport:
			r.Cells[0].OK = false
		case *search.Report:
			r.Candidates[0].OK = false
		default:
			f.Fatalf("unknown report type %T", rep)
		}
		add(rep)
	}
	f.Add([]byte(`{"experiments": [`))
	f.Add([]byte(`{"cells": [{"ok": false}], "candidates": null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := countFailedUnits(data)
		w, seeded := want[string(data)]
		if seeded && (err != nil || n != w) {
			t.Errorf("seed report counted %d (err %v), its Failed() is %d", n, err, w)
		}
	})
}

// TestServiceReleasesArtifactsBetweenJobs: the shared store holds a
// machine only while a job can use it. Two jobs that need the same fig10
// machine under different journals (one and two trials: the offline seed
// is trial 0's either way) run in sequence. Once the first is terminal
// no machine is resident, and the second is served from disk — a disk
// load, no build — with report bytes identical to a solo run.
func TestServiceReleasesArtifactsBetweenJobs(t *testing.T) {
	svc, err := Open(Config{StateDir: t.TempDir(), Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := func(spec JobSpec) {
		t.Helper()
		st, _, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		svc.WaitIdle()
		if st, _ = svc.Status(st.ID); st.State != StateDone {
			t.Fatalf("job %s: state %s (%s), want done", st.ID, st.State, st.Error)
		}
		got, err := svc.Report(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, soloBytes(t, spec)) {
			t.Errorf("job %s (%d trials): service report differs from the solo run", st.ID, spec.Trials)
		}
	}

	run(JobSpec{Kind: KindExperiments, Experiments: []string{"fig10"}, Trials: 1})
	if got := svc.store.Resident(); got != 0 {
		t.Fatalf("%d artifacts resident after the first job ended, want 0", got)
	}
	builds, loads := svc.store.Builds(), svc.store.DiskLoads()
	if builds == 0 {
		t.Fatal("the first job built nothing")
	}

	run(JobSpec{Kind: KindExperiments, Experiments: []string{"fig10"}, Trials: 2})
	if got := svc.store.Builds(); got != builds {
		t.Errorf("second job built %d machine(s), want 0: its machine is on disk", got-builds)
	}
	if got := svc.store.DiskLoads(); got <= loads {
		t.Errorf("disk loads %d -> %d: the second job did not load its machine from disk", loads, got)
	}
	if got := svc.store.Resident(); got != 0 {
		t.Errorf("%d artifacts resident after the second job ended, want 0", got)
	}
}
