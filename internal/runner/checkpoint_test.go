package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// ckptSweep is a deterministic sweep that counts how many trials actually
// execute, so tests can assert what a resume skipped. failKey, when
// non-empty, makes that cell's trials fail — checkpointed failures must
// replay byte-identically too.
func ckptSweep(executed *atomic.Int64, failKey string) experiments.Sweep {
	return onlineSweep("ckpt_sweep", "checkpoint test sweep", scenario.Grid{
		{Name: "a", Values: []float64{1, 2, 3}},
		{Name: "b", Values: []float64{10, 20}},
	}, func(_ experiments.Scale, seed int64, cell scenario.Cell) (experiments.Result, error) {
		executed.Add(1)
		if cell.Key() == failKey {
			return experiments.Result{}, fmt.Errorf("synthetic failure at %s", cell.Key())
		}
		a, _ := cell.Value("a")
		b, _ := cell.Value("b")
		res := experiments.Result{ID: "ckpt_sweep", Title: "ckpt", Header: []string{"k"}, Rows: [][]string{{"v"}}}
		res.AddMetric("ab", "units", a*b)
		res.AddMetric("seed_mod", "", float64(seed%1000))
		return res, nil
	})
}

func sweepReportJSON(t *testing.T, rep *SweepReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// killSink aborts the run after n outcomes — the in-process stand-in for
// kill -9 mid-sweep. Replayed outcomes do not count against the budget:
// a resumed run may stream many checkpoint hits before its first kill.
type killSink struct {
	n    int
	seen int
}

var errKilled = errors.New("killed by test sink")

func (k *killSink) Put(o TrialOutcome) error {
	if o.Resumed {
		return nil
	}
	k.seen++
	if k.seen > k.n {
		return errKilled
	}
	return nil
}

// journalPath returns the single journal file a test run created.
func journalPath(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one journal in %s, got %v (err %v)", dir, matches, err)
	}
	return matches[0]
}

// TestResumeByteIdentical is the tentpole property: a sweep killed after
// K of N trials and resumed produces byte-identical JSON to an
// uninterrupted run, for random K across seeds.
func TestResumeByteIdentical(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var cleanN atomic.Int64
			job := Job{Scale: experiments.Demo, Seed: seed, Trials: 3}
			cleanRep, err := New(Config{Parallel: 2}).RunSweep(ckptSweep(&cleanN, ""), job)
			if err != nil {
				t.Fatal(err)
			}
			want := sweepReportJSON(t, cleanRep)
			total := int(cleanN.Load())

			rng := rand.New(rand.NewSource(seed))
			k := rng.Intn(total)
			dir := t.TempDir()

			var killedN atomic.Int64
			_, err = New(Config{
				Parallel:      2,
				CheckpointDir: dir,
				Sinks:         []CellSink{&killSink{n: k}},
			}).RunSweep(ckptSweep(&killedN, ""), job)
			if !errors.Is(err, errKilled) {
				t.Fatalf("killed run: err %v, want errKilled", err)
			}

			var resumedN atomic.Int64
			rep, err := New(Config{
				Parallel:      2,
				CheckpointDir: dir,
				Resume:        true,
			}).RunSweep(ckptSweep(&resumedN, ""), job)
			if err != nil {
				t.Fatal(err)
			}
			if got := sweepReportJSON(t, rep); !bytes.Equal(want, got) {
				t.Errorf("kill after %d/%d + resume: JSON differs from uninterrupted run", k, total)
			}
			if int(killedN.Load())+int(resumedN.Load()) < total {
				t.Errorf("killed(%d) + resumed(%d) executed fewer than %d trials", killedN.Load(), resumedN.Load(), total)
			}
			if resumedN.Load() == int64(total) && k > 1 {
				t.Errorf("resume executed all %d trials — journal was ignored", total)
			}
		})
	}
}

// TestResumeSkipsCompletedTrials: resuming over a complete journal
// executes nothing and still reproduces the report exactly.
func TestResumeSkipsCompletedTrials(t *testing.T) {
	dir := t.TempDir()
	job := Job{Scale: experiments.Demo, Seed: 9, Trials: 2}
	var firstN atomic.Int64
	first, err := New(Config{Parallel: 3, CheckpointDir: dir}).RunSweep(ckptSweep(&firstN, ""), job)
	if err != nil {
		t.Fatal(err)
	}
	var secondN atomic.Int64
	second, err := New(Config{Parallel: 3, CheckpointDir: dir, Resume: true}).RunSweep(ckptSweep(&secondN, ""), job)
	if err != nil {
		t.Fatal(err)
	}
	if secondN.Load() != 0 {
		t.Errorf("full-journal resume executed %d trials, want 0", secondN.Load())
	}
	if !bytes.Equal(sweepReportJSON(t, first), sweepReportJSON(t, second)) {
		t.Error("replayed report differs from executed report")
	}
}

// TestResumeReplaysFailures: failed trials are journaled and replayed
// with identical error strings, not silently retried into success.
func TestResumeReplaysFailures(t *testing.T) {
	dir := t.TempDir()
	job := Job{Scale: experiments.Demo, Seed: 3, Trials: 2}
	var a, b atomic.Int64
	first, err := New(Config{CheckpointDir: dir}).RunSweep(ckptSweep(&a, "a=2,b=10"), job)
	if err != nil {
		t.Fatal(err)
	}
	if first.Failed() != 1 {
		t.Fatalf("want 1 failed cell, got %d", first.Failed())
	}
	second, err := New(Config{CheckpointDir: dir, Resume: true}).RunSweep(ckptSweep(&b, "a=2,b=10"), job)
	if err != nil {
		t.Fatal(err)
	}
	if b.Load() != 0 {
		t.Errorf("resume executed %d trials, want 0 (failures replay too)", b.Load())
	}
	if !bytes.Equal(sweepReportJSON(t, first), sweepReportJSON(t, second)) {
		t.Error("replayed failure report differs (error strings must round-trip)")
	}
}

// TestCorruptJournalEntriesHealed: flipping bytes in journal entries makes
// those cells re-run (and re-journal), never corrupts the report.
func TestCorruptJournalEntriesHealed(t *testing.T) {
	dir := t.TempDir()
	job := Job{Scale: experiments.Demo, Seed: 11, Trials: 2}
	var n atomic.Int64
	clean, err := New(Config{CheckpointDir: dir}).RunSweep(ckptSweep(&n, ""), job)
	if err != nil {
		t.Fatal(err)
	}
	want := sweepReportJSON(t, clean)

	path := journalPath(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	// Corrupt two entry lines (indexes 2 and 4; 0 is the header) and
	// truncate the final line mid-payload — the torn-write case.
	lines[2] = lines[2][:len(lines[2])-3] + "???"
	lines[4] = "garbage that is not even framed"
	last := len(lines) - 1
	lines[last] = lines[last][:len(lines[last])/2]
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	var healN atomic.Int64
	rep, err := New(Config{CheckpointDir: dir, Resume: true}).RunSweep(ckptSweep(&healN, ""), job)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, sweepReportJSON(t, rep)) {
		t.Error("report after healing corrupt journal differs from clean run")
	}
	if healN.Load() != 3 {
		t.Errorf("healing run executed %d trials, want 3 (the corrupted entries)", healN.Load())
	}

	// The re-run appended fresh entries: a further resume is all-replay.
	var afterN atomic.Int64
	if _, err := New(Config{CheckpointDir: dir, Resume: true}).RunSweep(ckptSweep(&afterN, ""), job); err != nil {
		t.Fatal(err)
	}
	if afterN.Load() != 0 {
		t.Errorf("journal not healed: follow-up resume executed %d trials", afterN.Load())
	}
}

// TestJournalIdentityMismatch: a journal written for one job is invisible
// to a different job — different seeds land in different files, and a
// tampered header invalidates the journal outright.
func TestJournalIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	jobA := Job{Scale: experiments.Demo, Seed: 1, Trials: 2}
	jobB := Job{Scale: experiments.Demo, Seed: 2, Trials: 2}
	var n atomic.Int64
	if _, err := New(Config{CheckpointDir: dir}).RunSweep(ckptSweep(&n, ""), jobA); err != nil {
		t.Fatal(err)
	}
	pathA := journalPath(t, dir) // jobA's journal, captured while it is the only one

	// A different seed resolves to a different journal file: nothing to
	// replay, every trial executes.
	var bN atomic.Int64
	if _, err := New(Config{CheckpointDir: dir, Resume: true}).RunSweep(ckptSweep(&bN, ""), jobB); err != nil {
		t.Fatal(err)
	}
	if bN.Load() != n.Load() {
		t.Errorf("jobB executed %d trials, want %d (foreign journal must be invisible)", bN.Load(), n.Load())
	}

	// Tamper with jobA's header: the journal must be rejected and rebuilt.
	raw, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(raw), "\n", 2)
	lines[0] = strings.Replace(lines[0], `"seed":1`, `"seed":5`, 1)
	if err := os.WriteFile(pathA, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	var aN atomic.Int64
	if _, err := New(Config{CheckpointDir: dir, Resume: true}).RunSweep(ckptSweep(&aN, ""), jobA); err != nil {
		t.Fatal(err)
	}
	if aN.Load() != n.Load() {
		t.Errorf("tampered-header journal was still trusted (executed %d, want %d)", aN.Load(), n.Load())
	}
}

// TestJournalLockExcludesConcurrentWriters: two invocations sharing a
// checkpoint dir and a job identity — the daemon's normal state — must
// not interleave appends into one journal. The second opener fails fast
// with ErrJournalBusy, before it has truncated or written anything, so
// the holder's journal stays healable; after the holder closes, the slot
// reopens and replays cleanly.
func TestJournalLockExcludesConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	ident := checkpointIdentity{Kind: "sweep", ID: "lock_test", Scale: "demo", Seed: 1, Trials: 2}

	holder, _, err := openCheckpoint(dir, ident, false)
	if err != nil {
		t.Fatal(err)
	}
	res := experiments.Result{ID: "x", Title: "x"}
	res.AddMetric("m", "", 42)
	if err := holder.Put(TrialOutcome{Unit: "u", Trial: 0, Result: res}); err != nil {
		t.Fatal(err)
	}

	// Contender without resume: under the old code this path truncated the
	// journal before anything could object.
	if _, _, err := openCheckpoint(dir, ident, false); !errors.Is(err, ErrJournalBusy) {
		t.Fatalf("second writer: err %v, want ErrJournalBusy", err)
	}
	// Contender with resume: same fail-fast.
	if _, _, err := openCheckpoint(dir, ident, true); !errors.Is(err, ErrJournalBusy) {
		t.Fatalf("second writer (resume): err %v, want ErrJournalBusy", err)
	}

	// The failed contenders must not have damaged the holder's journal: the
	// entry written before the contention attempts is still replayable.
	if err := holder.Put(TrialOutcome{Unit: "u", Trial: 1, Result: res}); err != nil {
		t.Fatal(err)
	}
	if err := holder.Close(); err != nil {
		t.Fatal(err)
	}
	s, replay, err := openCheckpoint(dir, ident, true)
	if err != nil {
		t.Fatalf("reopen after close: %v (lock must die with the holder)", err)
	}
	defer s.Close()
	if len(replay) != 2 {
		t.Fatalf("replayed %d outcomes, want 2 — contention corrupted the journal", len(replay))
	}
	for trial := 0; trial < 2; trial++ {
		o, ok := replay[outcomeKey{unit: "u", trial: trial}]
		if !ok || len(o.Result.Metrics) != 1 || o.Result.Metrics[0].Value != 42 {
			t.Fatalf("trial %d replayed wrong: %+v", trial, o)
		}
	}
}

// TestJournalRejectsCopiedForeignJournal pins the clear-text header check
// (checkpoint.go): a journal file copied or renamed into another run's
// content-addressed slot — same format, valid checksums, wrong identity —
// must be rejected outright, not silently replayed into the wrong job.
func TestJournalRejectsCopiedForeignJournal(t *testing.T) {
	dir := t.TempDir()
	jobA := Job{Scale: experiments.Demo, Seed: 1, Trials: 2}
	jobB := Job{Scale: experiments.Demo, Seed: 2, Trials: 2}
	var n atomic.Int64
	if _, err := New(Config{CheckpointDir: dir}).RunSweep(ckptSweep(&n, ""), jobA); err != nil {
		t.Fatal(err)
	}
	pathA := journalPath(t, dir)

	// Masquerade jobA's journal as jobB's: every line is checksum-valid,
	// only the header identity disagrees with the slot.
	raw, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	identB := checkpointIdentity{Kind: "sweep", ID: "ckpt_sweep", Scale: jobB.Scale.String(), Seed: jobB.Seed, Trials: jobB.Trials}
	pathB := filepath.Join(dir, identB.filename())
	if err := os.WriteFile(pathB, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, usable := loadJournal(pathB, identB); usable {
		t.Fatal("copied foreign journal accepted by header check")
	}

	// End to end: a resumed jobB run must execute every trial (nothing
	// replayed from the foreign file) and rebuild the slot for itself.
	var bN atomic.Int64
	if _, err := New(Config{CheckpointDir: dir, Resume: true}).RunSweep(ckptSweep(&bN, ""), jobB); err != nil {
		t.Fatal(err)
	}
	if bN.Load() != n.Load() {
		t.Errorf("jobB executed %d trials, want %d — copied journal was replayed", bN.Load(), n.Load())
	}
	// The poisoned slot has been rewritten with jobB's own header.
	if replay, usable := loadJournal(pathB, identB); !usable || len(replay) != int(n.Load()) {
		t.Errorf("slot not healed for jobB: usable=%v replayed=%d", usable, len(replay))
	}
}

// TestTrialBudget: a budgeted run stops with ErrBudget after executing
// its allowance, journals that work, and repeated budgeted resumes
// complete the job with a byte-identical report.
func TestTrialBudget(t *testing.T) {
	var cleanN atomic.Int64
	job := Job{Scale: experiments.Demo, Seed: 7, Trials: 2}
	clean, err := New(Config{}).RunSweep(ckptSweep(&cleanN, ""), job)
	if err != nil {
		t.Fatal(err)
	}
	want := sweepReportJSON(t, clean)
	total := int(cleanN.Load())

	dir := t.TempDir()
	budget := 5
	var rep *SweepReport
	executedTotal := 0
	for i := 0; ; i++ {
		if i > total {
			t.Fatal("budgeted runs did not converge")
		}
		var n atomic.Int64
		r, err := New(Config{
			CheckpointDir: dir,
			Resume:        true,
			TrialBudget:   budget,
		}).RunSweep(ckptSweep(&n, ""), job)
		executedTotal += int(n.Load())
		if errors.Is(err, ErrBudget) {
			if n.Load() != int64(budget) {
				t.Fatalf("budgeted pass executed %d trials, want %d", n.Load(), budget)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		rep = r
		break
	}
	if executedTotal != total {
		t.Errorf("budgeted passes executed %d trials total, want %d (no re-execution)", executedTotal, total)
	}
	if !bytes.Equal(want, sweepReportJSON(t, rep)) {
		t.Error("budget-assembled report differs from uninterrupted run")
	}
}

// TestBudgetRequiresCheckpoint: a budget without a journal would discard
// its work; the runner refuses.
func TestBudgetRequiresCheckpoint(t *testing.T) {
	var n atomic.Int64
	if _, err := New(Config{TrialBudget: 1}).RunSweep(ckptSweep(&n, ""), Job{Scale: experiments.Demo, Trials: 1}); err == nil {
		t.Fatal("budget without checkpoint dir accepted")
	}
	if _, err := New(Config{Resume: true}).RunSweep(ckptSweep(&n, ""), Job{Scale: experiments.Demo, Trials: 1}); err == nil {
		t.Fatal("resume without checkpoint dir accepted")
	}
}

// TestRunPathCheckpointResume: the experiments (non-sweep) path
// checkpoints under the same contract, and the journal is selection-
// independent — a run over a subset resumes from a full-registry journal.
func TestRunPathCheckpointResume(t *testing.T) {
	var aCount, bCount atomic.Int64
	exps := []experiments.Experiment{
		online("ckpt_a", "a", func(_ experiments.Scale, seed int64) (experiments.Result, error) {
			aCount.Add(1)
			res := experiments.Result{ID: "ckpt_a", Title: "a", Header: []string{"k"}, Rows: [][]string{{"v"}}}
			res.AddMetric("m", "", float64(seed%97))
			return res, nil
		}),
		online("ckpt_b", "b", func(_ experiments.Scale, seed int64) (experiments.Result, error) {
			bCount.Add(1)
			res := experiments.Result{ID: "ckpt_b", Title: "b", Header: []string{"k"}, Rows: [][]string{{"v"}}}
			res.AddMetric("m", "", float64(seed%89))
			return res, nil
		}),
	}
	dir := t.TempDir()
	job := Job{Scale: experiments.Demo, Seed: 4, Trials: 3}
	full, err := New(Config{CheckpointDir: dir}).Run(exps, job)
	if err != nil {
		t.Fatal(err)
	}
	if aCount.Load() != 3 || bCount.Load() != 3 {
		t.Fatalf("first run executed a=%d b=%d, want 3 each", aCount.Load(), bCount.Load())
	}

	// Subset selection resumes from the full-selection journal.
	sub, err := New(Config{CheckpointDir: dir, Resume: true}).Run(exps[:1], job)
	if err != nil {
		t.Fatal(err)
	}
	if aCount.Load() != 3 {
		t.Errorf("subset resume re-executed ckpt_a (count %d)", aCount.Load())
	}
	if len(sub.Experiments) != 1 || sub.Experiments[0].ID != "ckpt_a" {
		t.Fatalf("subset report wrong: %+v", sub.Experiments)
	}
	if sub.Experiments[0].Metrics[0].Values[0] != full.Experiments[0].Metrics[0].Values[0] {
		t.Error("replayed metric differs from executed metric")
	}
}

// TestCheckpointWithoutResumeTruncates: without Resume, an existing
// journal is ignored and overwritten — a fresh run must not inherit
// stale outcomes.
func TestCheckpointWithoutResumeTruncates(t *testing.T) {
	dir := t.TempDir()
	job := Job{Scale: experiments.Demo, Seed: 2, Trials: 1}
	var a, b atomic.Int64
	if _, err := New(Config{CheckpointDir: dir}).RunSweep(ckptSweep(&a, ""), job); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{CheckpointDir: dir}).RunSweep(ckptSweep(&b, ""), job); err != nil {
		t.Fatal(err)
	}
	if b.Load() != a.Load() {
		t.Errorf("non-resume rerun executed %d trials, want %d (journal must not be read)", b.Load(), a.Load())
	}
}

// FuzzJournalLoad feeds a journal with a valid header followed by
// arbitrary bytes to loadJournal, which reads journals left on disk by
// earlier (possibly killed or tampered-with) invocations. It must never
// panic, and every outcome it accepts must survive a second trip through
// the journal: checkpointSink.Put then loadJournal returns it unchanged,
// so a resumed report cannot drift from what the first resume read.
func FuzzJournalLoad(f *testing.F) {
	line := func(payload string) string {
		sum := sha256.Sum256([]byte(payload))
		return hex.EncodeToString(sum[:8]) + " " + payload + "\n"
	}
	for _, seed := range []string{
		"",
		line(`{"unit":"fig5","trial":0,"result":{"ID":"fig5","Metrics":[{"name":"m","unit":"u","value":-0.5}]},"wall_ns":7}`),
		line(`{"unit":"a=1","trial":1,"failed":true,"error":"boom","wall_ns":1}`) + line(`{"unit":"a=1","trial":1,"result":{},"wall_ns":2}`),
		line(`{"unit":"x","trial":-3,"failed":true}`),
		line(`{"unit":"","trial":0,"result":{}}`) + line(`{"unit":"y","trial":0}`),
		line(`{"unit":"z","trial":2,"result":{"Rows":[null,["a"]],"Header":[]}}`) + "0123456789abcdef {\"unit\":\"torn",
		"not a journal line\n\n \n",
	} {
		f.Add([]byte(seed))
	}
	ident := checkpointIdentity{Kind: "experiments", Scale: "demo", Seed: 1, Trials: 2}
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		sink, _, err := openCheckpoint(filepath.Join(dir, "first"), ident, false)
		if err != nil {
			t.Fatal(err)
		}
		// The raw bytes, then the same lines again under valid checksums so
		// the entry decoding behind the checksum is fuzzed too.
		journal := append(append([]byte{}, tail...), '\n')
		for _, l := range strings.Split(string(tail), "\n") {
			journal = append(journal, line(l)...)
		}
		if _, err := sink.f.Write(journal); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		first, ok := loadJournal(filepath.Join(dir, "first", ident.filename()), ident)
		if !ok {
			t.Fatal("journal with a valid header reported unusable")
		}

		sink, _, err = openCheckpoint(filepath.Join(dir, "second"), ident, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range first {
			if err := sink.Put(o); err != nil {
				t.Fatalf("re-journal %s trial %d: %v", o.Unit, o.Trial, err)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		second, ok := loadJournal(filepath.Join(dir, "second", ident.filename()), ident)
		if !ok {
			t.Fatal("re-journaled outcomes unusable")
		}
		if len(second) != len(first) {
			t.Fatalf("%d outcomes loaded, %d after re-journaling", len(first), len(second))
		}
		for k, a := range first {
			b, ok := second[k]
			if !ok {
				t.Fatalf("%s trial %d lost on re-journaling", k.unit, k.trial)
			}
			if a.Unit != b.Unit || a.Trial != b.Trial || a.Wall != b.Wall || (a.Err == nil) != (b.Err == nil) ||
				fmt.Sprint(a.Err) != fmt.Sprint(b.Err) || !reflect.DeepEqual(a.Result, b.Result) {
				t.Fatalf("%s trial %d changed on re-journaling:\nfirst:  %+v\nsecond: %+v", k.unit, k.trial, a, b)
			}
		}
	})
}
